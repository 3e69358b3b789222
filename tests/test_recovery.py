import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from votefuse.config import RunConfig
from votefuse import recovery
from votefuse.augment import augment_graph, augment_matrix
from votefuse.errors import (EstimationWarning, InsufficientIndependence, NumericalInstability,
                             UnsupportedCliqueSize, VoteFuseError)
from votefuse.graph import (
    ClassPrior,
    DependencyGraph,
    LabelMatrix,
    VarSet,
    build_junction_tree,
    marginalize_table,
    validate_graph,
)
from votefuse.oracle import (
    CanonicalParameters,
    enumerate_joint,
    random_model,
    sample,
)
from votefuse.recovery import (
    build_transform,
    clique_expectations,
    clique_rhs,
    compile_cliques,
    mu_flatten,
    mu_unflatten,
    recover_from_moments,
    recover_parameters,
    solve_cliques,
)

from votefuse.moments import enumerate_triplets, estimate_accuracies, estimate_moments

from conftest import acceptance_grid, reference_clique_tables, star, star_with_edges

# the displayed single-source transform, frozen
A1_EXPECTED = np.array([
    [1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
], dtype=float)


class TestBuildTransform:
    def test_s1_matches_reference_matrix(self):
        np.testing.assert_array_equal(build_transform(1).A, A1_EXPECTED)

    def test_s0_bases(self):
        T = build_transform(0)
        np.testing.assert_array_equal(T.A, [[1, 1], [1, 0]])
        np.testing.assert_array_equal(T.B, [[0, 0], [0, 1]])

    def test_s2_invertible(self):
        T = build_transform(2)
        assert T.A.shape == (18, 18)
        sign, logdet = np.linalg.slogdet(T.A)
        assert sign != 0 and np.isfinite(logdet)

    def test_inverse_cached(self):
        T = build_transform(1)
        np.testing.assert_allclose(T.A_inv @ T.A, np.eye(6), atol=1e-12)


def _r_direct(joint, d, sources, sign):
    """Independent right-hand-side construction straight off an enumerated
    joint: entry (U, Z) is P(prod of Z members = sign, U members = 0)."""
    s = len(sources)
    p = joint.collapsed.reshape(-1)
    task_vals = joint._task_vectors()[d]
    vote = joint._vote_vectors()
    r = np.zeros(2 * 3 ** s)
    for idx in range(r.size):
        y_in_z = idx % 2
        rest = idx // 2
        membership = []
        for _ in range(s):
            membership.append(rest % 3)
            rest //= 3
        prod = np.ones(p.size)
        mask = np.ones(p.size, dtype=bool)
        any_z = False
        if y_in_z:
            prod *= task_vals
            any_z = True
        for t, mem in enumerate(membership):
            if mem == 1:
                prod *= vote[sources[t]]
                any_z = True
            elif mem == 2:
                mask &= vote[sources[t]] == 0
        if not any_z:
            r[idx] = float(p[mask].sum()) if sign == 1 else 0.0
        else:
            r[idx] = float(p[mask & (prod == sign)].sum())
    return r


class TestTransformIdentity:
    def test_identity_on_enumerated_joints(self):
        g = DependencyGraph(n_tasks=1, n_sources=2, assignment=(0, 0),
                            source_edges=((0, 1),))
        for seed in range(10):
            j = enumerate_joint(random_model(g, seed=seed))
            for vs in (VarSet((0,), (0,)), VarSet((0,), (0, 1))):
                mu = mu_flatten(j.clique_table(vs))
                T = build_transform(len(vs.sources))
                np.testing.assert_allclose(T.A @ mu, _r_direct(j, 0, vs.sources, 1),
                                           atol=1e-10)
                np.testing.assert_allclose(T.B @ mu, _r_direct(j, 0, vs.sources, -1),
                                           atol=1e-10)

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(2)
        tbl = rng.random((2, 3, 3))
        np.testing.assert_array_equal(mu_unflatten(mu_flatten(tbl), 2), tbl)


def _compiled(g):
    return compile_cliques(build_junction_tree(validate_graph(g)))


class TestCliqueExpectation:
    def test_pair_product_rule(self):
        # E[v_i v_j] = 0.42 and E[Y] = 0.2 give 0.084
        g = star_with_edges(2, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=0))
        me = j.moment_estimates()
        me.M[0, 2] = me.M[2, 0] = 0.42
        prior = ClassPrior.from_balance(0.6)  # E[Y] = 0.2
        exp = clique_expectations(_compiled(g), np.zeros(4), me.M,
                                  np.array([prior.task_mean(0)]))
        assert exp[2] == pytest.approx(0.084)  # after the two sources

    def test_single_source_passthrough(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=1))
        me = j.moment_estimates()
        values = np.array([0.61, -0.61, 0.2, -0.2, 0.3, -0.3])
        exp = clique_expectations(_compiled(g), values, me.M, np.array([0.0]))
        assert exp[0] == 0.61

    def test_matches_enumerated_pair_expectation(self):
        g = star_with_edges(3, [(0, 1)])
        for seed in range(5):
            j = enumerate_joint(random_model(g, seed=seed))
            me = j.moment_estimates()
            p = j.p_full
            truth = float(np.dot(p, j.lambda_value(0) * j.lambda_value(1)
                                 * j.task_value(0)))
            exp = clique_expectations(_compiled(g), j.column_accuracies(), me.M,
                                      np.array([j.prior().task_mean(0)]))
            assert exp[3] == pytest.approx(truth, abs=1e-10)  # after the three sources

    def test_three_sources_rejected(self):
        # a clique of three sources never reaches the recovery: the junction
        # tree refuses it
        with pytest.raises(UnsupportedCliqueSize):
            build_junction_tree(star_with_edges(3, [(0, 1), (0, 2), (1, 2)]))


class TestAssembleRhs:
    def test_never_abstaining_source(self):
        g = star(1)
        th = CanonicalParameters(graph=g, theta_task=(0.0,), theta_acc=(0.5,),
                                 abstaining=False)
        me = enumerate_joint(th).moment_estimates()
        # a pinned accuracy of 0.6 for the frozen value, under E[Y] = 0
        r = clique_rhs(_compiled(g), np.array([0.6, -0.6]), me, np.empty(0),
                       np.array([0.0]))
        assert r[0] == 1.0
        assert r[1] == 0.5
        assert r[3] == pytest.approx(0.5 * (0.6 - 0.0 + 1.0))  # = 0.8
        assert r[4] == 0.0
        assert r[5] == 0.0

    def test_always_abstaining_source(self):
        g = star(1)
        votes = np.zeros((10, 1), dtype=np.int8)
        from votefuse.augment import augment_matrix
        from votefuse.moments import estimate_moments
        me = estimate_moments(augment_matrix(LabelMatrix(votes)),
                              ClassPrior.from_balance(0.5))
        r = clique_rhs(_compiled(g), np.zeros(2), me, np.empty(0),
                       np.array([0.0]))
        assert r[4] == 1.0                     # P(abstain) = 1
        assert r[3] == pytest.approx(0.0)      # P(lambda Y = 1) = 0

    def test_matches_enumerated_probabilities(self):
        g = star_with_edges(2, [(0, 1)])
        compiled = compile_cliques(build_junction_tree(g))
        for seed in range(5):
            j = enumerate_joint(random_model(g, seed=seed))
            cond = np.array([j.conditional_accuracy(t, c) for t, c in compiled.cond_pairs])
            r = clique_rhs(compiled, j.column_accuracies(), j.moment_estimates(),
                           cond, np.array([j.prior().task_mean(0)]))
            np.testing.assert_allclose(r, _r_direct(j, 0, (0, 1), 1), atol=1e-10)

    def test_reads_each_pair_by_its_sources(self):
        # the cross-tabs are found by source pair, in whatever order the
        # moments hold them and among untracked extras; a pair the moments
        # lack is a KeyError naming it
        g = star_with_edges(4, [(0, 1), (2, 3)])
        compiled = compile_cliques(build_junction_tree(g))
        j = enumerate_joint(random_model(g, seed=3))
        me = j.moment_estimates()
        assert me.pairs == ((0, 1), (2, 3))
        cond = np.array([j.conditional_accuracy(t, c) for t, c in compiled.cond_pairs])
        means = np.array([j.prior().task_mean(0)])
        want = clique_rhs(compiled, j.column_accuracies(), me, cond, means)
        cells = me.pair_cells
        shuffled = dataclasses.replace(me, pairs=((2, 3), (0, 2), (0, 1)),
                                       pair_cells=np.stack([cells[1], cells[0] * 0.5, cells[0]]))
        got = clique_rhs(compiled, j.column_accuracies(), shuffled, cond, means)
        assert got.tobytes() == want.tobytes()
        short = dataclasses.replace(me, pairs=((0, 1),), pair_cells=cells[:1])
        with pytest.raises(KeyError, match=r"\(2, 3\)"):
            clique_rhs(compiled, j.column_accuracies(), short, cond, means)


class TestSolveMarginal:
    def test_exact_rhs_recovers_marginal(self):
        g = star_with_edges(2, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=4))
        vs = VarSet((0,), (0, 1))
        compiled = compile_cliques(build_junction_tree(g))
        tables, clip, _ = _solve(compiled, _r_direct(j, 0, (0, 1), 1))
        np.testing.assert_allclose(tables[vs], j.clique_table(vs), atol=1e-9)
        assert clip[vs.label()] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_source(self):
        r = np.array([1.0, 0.5, 0.5, 1.0, 0.0, 0.0])
        tables, _, _ = _solve(_compiled_star1(), r)
        table = tables[VarSet((0,), (0,))]
        assert table[0, 0] == pytest.approx(0.5)   # mu(Y=1, vote=1)
        assert table[1, 2] == pytest.approx(0.5)   # mu(Y=-1, vote=-1)
        assert abs(table).sum() == pytest.approx(1.0)

    def test_always_abstaining_source(self):
        r = np.array([1.0, 0.6, 0.0, 0.0, 1.0, 0.6])
        tables, _, _ = _solve(_compiled_star1(), r)
        table = tables[VarSet((0,), (0,))]
        assert table[0, 1] == pytest.approx(0.6)   # mass only on abstain states
        assert table[1, 1] == pytest.approx(0.4)
        assert table[:, (0, 2)].sum() == pytest.approx(0.0)

    def test_instability_raises(self):
        r = np.array([1.0, 0.5, 0.9, 0.9, 0.4, 0.0])
        with pytest.raises(NumericalInstability, match=r"\{Y1,L1\} solved to range"):
            solve_cliques(_compiled_star1(), r)

    def test_instability_names_first_clique_in_tree_order(self):
        # {Y1,L1,L2} precedes {Y1,L3} in the tree but its right-hand side
        # follows the single-source group's; with both unstable, the error
        # names it
        compiled = compile_cliques(build_junction_tree(star_with_edges(3, [(0, 1)])))
        assert [c.label() for c in compiled.cliques] == ["{Y1,L1,L2}", "{Y1,L3}"]
        bad = np.array([1.0, 0.5, 0.9, 0.9, 0.4, 0.0])
        bad_pair = np.kron(np.array([1.0, 0.0, 0.0]), bad)
        with pytest.raises(NumericalInstability,
                           match=r"^marginal for \{Y1,L1,L2\} .* \(clique \{Y1,L1,L2\}\)$"):
            solve_cliques(compiled, np.concatenate([bad, bad_pair]))


def _solve(compiled, rhs):
    """``solve_cliques`` with its parameter vector read as clique tables."""
    table, clip, clamp = solve_cliques(compiled, rhs)
    return compiled.layout.views(table)[0], clip, clamp


def _compiled_star1():
    return compile_cliques(build_junction_tree(star(1)))


@st.composite
def _sampled_model(draw):
    """A star with 0-3 source edges, or a two-task chain, with a sampled window."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 8))
        g = DependencyGraph(1, m, (0,) * m, source_edges=tuple(draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda e: e[0] != e[1]),
            max_size=3))))
    else:
        m1, m2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        edges = [(0, 1)] if draw(st.booleans()) else []
        g = DependencyGraph(2, m1 + m2, (0,) * m1 + (1,) * m2, task_edges=((0, 1),),
                            source_edges=tuple(edges))
    return g, draw(st.integers(0, 2 ** 16)), draw(st.sampled_from([60, 150, 400, 2000]))


@settings(max_examples=100, deadline=None)
@given(model=_sampled_model())
def test_batched_solve_matches_per_clique_reference(model):
    g, seed, n = model
    try:
        g = validate_graph(g)
    except UnsupportedCliqueSize:
        assume(False)
    j = enumerate_joint(random_model(g, seed=seed))
    L, _ = sample(j, n, seed=seed + 1)
    G, jt, cfg = augment_graph(g), build_junction_tree(g), RunConfig(ratio_fallback=True)
    moments = estimate_moments(augment_matrix(L), j.prior(), G)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EstimationWarning)
        try:
            plan = enumerate_triplets(G, cfg)
            acc = estimate_accuracies(moments, plan, cfg)
        except VoteFuseError:
            assume(False)
        compiled = compile_cliques(jt)
        event("two-source cliques" if compiled.cond_pairs else "one-source cliques only")
        cond = recovery._conditional_accuracies(compiled.cond_pairs, moments, plan, acc, cfg,
                                                recovery.RecoveryDiagnostics())
        try:
            want = reference_clique_tables(jt, acc.values, moments,
                                           dict(zip(compiled.cond_pairs, cond)), j.prior())
        except NumericalInstability as exc:
            event("unstable solve")
            with pytest.raises(NumericalInstability) as got:
                recover_from_moments(moments, g, cfg, jtree=jt, plan=plan, acc=acc)
            assert str(got.value) == str(exc)
            return
        mu = recover_from_moments(moments, g, cfg, jtree=jt, plan=plan, acc=acc)
    tables, clips, clamps = want
    for vs, table in tables.items():
        np.testing.assert_allclose(mu.cliques[vs], table, rtol=0, atol=1e-15)
    # the batched product sums in another order than a one-vector product, so
    # a clip (a deviation of the raw solution) may differ in its last bits
    assert mu.diagnostics.clip_magnitudes == pytest.approx(clips, rel=0, abs=1e-15)
    assert mu.diagnostics.rhs_clamps == clamps


class TestRecoverParameters:
    def test_graph_without_a_triplet_fails_before_the_statistics_pass(self):
        # sources 1-2-3 chained by source edges share one component, so no
        # triplet is conditionally independent; the plan is built, and
        # fails, before any row is read
        g = star_with_edges(3, [(0, 1), (1, 2)])
        L = LabelMatrix(np.ones((10, 3), dtype=np.int8))
        read = mock.Mock(side_effect=AssertionError("the statistics pass ran"))
        with mock.patch.object(recovery, "estimate_moments", read):
            with pytest.raises(InsufficientIndependence):
                recover_parameters(L, g, ClassPrior.from_balance(0.6), RunConfig())
        read.assert_not_called()

    def test_exact_moments_closure_on_grid(self):
        for g, seed, abstaining in acceptance_grid():
            g = validate_graph(g)
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            jt = build_junction_tree(g)
            truth = j.true_parameters(jt)
            mu = recover_from_moments(j.moment_estimates(), g, RunConfig())
            for vs in jt.cliques:
                np.testing.assert_allclose(mu.cliques[vs], truth.cliques[vs],
                                           atol=1e-9)

    def test_report_counts_partner_pairs(self):
        # star(5) with sources 1-2 coupled. Sources 1 and 2 pair columns of
        # two of sources 3-5: 3 source pairs x 4. Sources 3-5 pair one of the
        # coupled sources' 4 columns with one of the other two sources' 4
        # columns (16), or those two sources with each other (4).
        g = validate_graph(star_with_edges(5, [(0, 1)]))
        j = enumerate_joint(random_model(g, seed=23))
        mu = recover_from_moments(j.moment_estimates(), g, RunConfig())
        assert mu.diagnostics.partner_pairs == {0: 12, 2: 12, 4: 20, 6: 20, 8: 20}
        assert "valid partner pairs per column: min 12, max 20, columns 5" in \
            mu.diagnostics.report()

    def test_warns_of_floored_accuracies(self):
        # source 1 is uncorrelated with sources 2-4, which agree on every
        # row, so its accuracy magnitude is floored: recorded and warned of
        base = np.array([[1, 1, 1, 1], [-1, 1, 1, 1], [1, -1, -1, -1], [-1, -1, -1, -1]],
                        dtype=np.int8)
        with pytest.warns(EstimationWarning, match=r"floor for columns \[0\]"):
            mu = recover_parameters(LabelMatrix(np.tile(base, (25, 1))), star(4),
                                    ClassPrior.from_balance(0.5))
        assert mu.diagnostics.floored_columns == [0]
        assert "  accuracy floor hit for columns: [0]" in mu.diagnostics.report().splitlines()

    def test_warns_of_sign_ties(self):
        # sources 1 and 2 vote against sources 3 and 4 on every row, so the
        # accuracy sum is zero under both flips: recorded and warned of
        votes = np.tile(np.array([[1, 1, -1, -1], [-1, -1, 1, 1]], dtype=np.int8), (25, 1))
        with pytest.warns(EstimationWarning, match="sign tie for task 1"):
            mu = recover_parameters(LabelMatrix(votes), star(4), ClassPrior.from_balance(0.5))
        assert mu.diagnostics.sign["sign_ties"] == [0]
        assert "  sign ties: [0]" in mu.diagnostics.report().splitlines()

    def test_report_names_ratio_fallback_sources(self):
        # source 3 has no accuracy, so every partner pair of sources 1 and 2
        # has a zero moment (ratio fallback) and source 3's magnitude is
        # floored; the report names both, sources from 1 and columns from 0
        g = star(3)
        th = CanonicalParameters(graph=g, theta_task=(0.3,), theta_acc=(0.5, 0.7, 0.0),
                                 theta_abstain=(0.1, 0.1, 0.1))
        mu = recover_from_moments(enumerate_joint(th).moment_estimates(), g,
                                  RunConfig(ratio_fallback=True))
        assert mu.diagnostics.ratio_fallback_sources == [0, 1]
        assert mu.diagnostics.report().splitlines() == [
            "recovery diagnostics",
            "  valid partner pairs per column: min 4, max 4, columns 3",
            "  ratio fallback for sources: [1, 2]",
            "  accuracy floor hit for columns: [4]",
            "  max marginal clip magnitude: 0",
        ]

    def test_caller_accuracies_with_extra_diagnostics_keys(self):
        # diagnostics of caller-built Accuracies are a free-form dict: the
        # fit reads the four keys it knows and ignores any other
        g = validate_graph(star(4))
        j = enumerate_joint(random_model(g, seed=23))
        moments, cfg = j.moment_estimates(), RunConfig()
        plan = enumerate_triplets(augment_graph(g), cfg)
        acc = estimate_accuracies(moments, plan, cfg)
        want = recover_from_moments(moments, g, cfg, plan=plan, acc=acc)
        acc = dataclasses.replace(acc, diagnostics={**acc.diagnostics, "note": "hand-set"})
        mu = recover_from_moments(moments, g, cfg, plan=plan, acc=acc)
        assert mu.table.tobytes() == want.table.tobytes()
        assert mu.diagnostics == want.diagnostics

    def test_exact_closure_with_chained_dependencies(self):
        # one source coupled to two others produces a task+source separator
        # and leaves no valid triplets; the ratio fallback carries the whole
        # recovery and the closure stays exact
        g = validate_graph(DependencyGraph(1, 4, (0, 0, 0, 0),
                                           source_edges=((0, 1), (0, 2))))
        jt = build_junction_tree(g)
        assert any(sep.sources for sep, _ in jt.separators)
        rng = np.random.default_rng(17)
        th = CanonicalParameters(
            graph=g, theta_task=(np.arctanh(0.3),),
            theta_acc=tuple(rng.uniform(0.3, 0.8, 4)),
            theta_abstain=tuple(rng.uniform(-0.3, 0.3, 4)),
            theta_dep={(0, 1): 0.2, (0, 2): -0.15})
        j = enumerate_joint(th)
        truth = j.true_parameters(jt)
        mu = recover_from_moments(j.moment_estimates(), g,
                                  RunConfig(ratio_fallback=True))
        for vs in jt.cliques:
            np.testing.assert_allclose(mu.cliques[vs], truth.cliques[vs], atol=1e-9)
        for vs, _deg in jt.separators:
            np.testing.assert_allclose(mu.separators[vs], truth.separators[vs],
                                       atol=1e-9)

    def test_graph_without_sources_returns_the_prior(self):
        mu = recover_parameters(LabelMatrix(np.zeros((5, 0), dtype=np.int8)),
                                DependencyGraph(1, 0, ()), ClassPrior.from_balance(0.6),
                                RunConfig(ratio_fallback=True))
        np.testing.assert_array_equal(mu.cliques[VarSet((0,), ())], [0.6, 0.4])

    def test_sampled_recovery(self):
        g = star(5)
        j = enumerate_joint(random_model(g, seed=5))
        truth = j.true_parameters()
        L, _ = sample(j, 100_000, seed=6)
        mu = recover_parameters(L, g, j.prior(), RunConfig())
        worst = max(np.max(np.abs(mu.cliques[vs] - truth.cliques[vs]))
                    for vs in truth.cliques)
        assert worst <= 0.02

    def test_m2_ratio_fallback_end_to_end(self):
        g = star(2)
        th = CanonicalParameters(graph=g, theta_task=(np.arctanh(0.3),),
                                 theta_acc=(0.6, 0.8), theta_abstain=(0.1, -0.2))
        j = enumerate_joint(th)
        L, _ = sample(j, 60_000, seed=7)
        cfg = RunConfig(ratio_fallback=True)
        mu = recover_parameters(L, g, j.prior(), cfg)
        assert set(mu.diagnostics.ratio_fallback_sources) == {0, 1}
        truth = j.true_parameters()
        worst = max(np.max(np.abs(mu.cliques[vs] - truth.cliques[vs]))
                    for vs in truth.cliques)
        assert worst < 0.03

    def test_tables_are_valid_distributions(self):
        g = star_with_edges(5, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=8))
        L, _ = sample(j, 20_000, seed=9)
        mu = recover_parameters(L, g, j.prior(), RunConfig())
        # sum/nonnegativity are exact by construction; separator agreement on
        # sampled data is only as tight as the clip-and-renormalize step
        mu.validate(tol_sum=1e-9, tol_sep=0.05)

    def test_source_separators_are_their_host_marginals_bit_for_bit(self):
        # {Y1,L1} is the first source of its host {Y1,L1,L2}, and {Y1,L6}
        # the second of its host {Y1,L5,L6}
        g = star_with_edges(8, [(0, 1), (0, 2), (4, 5), (5, 6)])
        j = enumerate_joint(random_model(g, seed=3))
        L, _ = sample(j, 5000, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            mu = recover_parameters(L, g, j.prior(), RunConfig())
        hosted = [sep for sep, _deg in mu.jtree.separators if sep.sources]
        assert [sep.label() for sep in hosted] == ["{Y1,L1}", "{Y1,L6}"]
        for sep in hosted:
            host = next(c for c in mu.jtree.cliques if sep <= c)
            onto = marginalize_table(host, mu.cliques[host], sep)
            assert mu.separators[sep].tobytes() == onto.tobytes()

    def test_separator_consistency_on_exact_moments(self):
        for g, seed, abstaining in (acceptance_grid()[0], acceptance_grid()[-1]):
            g = validate_graph(g)
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            mu = recover_from_moments(j.moment_estimates(), g, RunConfig())
            for sep, _deg in mu.jtree.separators:
                for cl in mu.jtree.cliques:
                    if sep <= cl:
                        onto = marginalize_table(cl, mu.cliques[cl], sep)
                        np.testing.assert_allclose(onto, mu.separators[sep],
                                                   atol=1e-6)
