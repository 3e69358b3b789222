import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest

from votefuse import graph, inference
from votefuse.config import RunConfig
from votefuse.errors import AllZeroLikelihood, DegenerateClass, EstimationWarning, ShapeMismatch
from votefuse.graph import (
    ClassPrior,
    DependencyGraph,
    LabelMatrix,
    VarSet,
    build_junction_tree,
    validate_graph,
)
from votefuse.inference import (
    joint_probability,
    majority_vote,
    marginal_positives,
    one_vs_all,
    posterior,
    predict_proba,
    reduce_one_vs_rest,
)
from votefuse.graph import LabelModelParameters
from votefuse.oracle import (
    CanonicalParameters,
    enumerate_joint,
    random_model,
    sample,
    sample_symmetric_star,
)
from votefuse.recovery import recover_parameters

from conftest import acceptance_grid, chain3, reference_log_joint, star, star_with_edges


def _short_blocks(jt, rows):
    """Give ``jt`` a copy of its layout under which blocks of up to ``rows``
    rows take the one gather."""
    layout = jt.layout
    n_tasks = 1 + max(d for c in jt.cliques for d in c.tasks)
    return mock.patch.dict(jt.__dict__, {"_layout": dataclasses.replace(
        layout, gather_rows=rows, row_base=graph._row_base(layout.factors, n_tasks))})


def _single_source_params():
    """The worked single-clique example: mu(Y, vote) with P(Y=1, vote=1)=0.4."""
    g = star(1)
    jt = build_junction_tree(g)
    tbl = np.array([[0.4, 0.05, 0.05],      # Y=+1: vote +1, 0, -1
                    [0.1, 0.05, 0.35]])     # Y=-1
    vs = VarSet((0,), (0,))
    return LabelModelParameters.from_tables(g, jt, {vs: tbl}, {}), jt


def _with_clique(mu, vs, tbl):
    """``mu`` with the table of clique ``vs`` replaced by ``tbl``."""
    return LabelModelParameters.from_tables(mu.graph, mu.jtree, {**mu.cliques, vs: tbl},
                                            mu.separators)


class TestJointProbability:
    def test_single_clique_lookup(self):
        mu, jt = _single_source_params()
        assert joint_probability(mu, jt, [1], [1]) == pytest.approx(0.4)
        assert joint_probability(mu, jt, [-1], [0]) == pytest.approx(0.05)

    def test_two_sources_divide_by_separator(self):
        g = star(2)
        jt = build_junction_tree(g)
        t1 = np.array([[0.3, 0.1, 0.1], [0.05, 0.15, 0.3]])
        t2 = np.array([[0.25, 0.2, 0.05], [0.1, 0.2, 0.2]])
        sep = np.array([0.5, 0.5])
        mu = LabelModelParameters.from_tables(
            g, jt, {VarSet((0,), (0,)): t1, VarSet((0,), (1,)): t2},
            {VarSet((0,), ()): sep})
        got = joint_probability(mu, jt, [1], [1, -1])
        assert got == pytest.approx(0.3 * 0.05 / 0.5)

    def test_enumerated_joint_reproduced_and_sums_to_one(self):
        for g, seed, abstaining in acceptance_grid()[:4]:
            g = validate_graph(g)
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            jt = build_junction_tree(g)
            mu = j.true_parameters(jt)
            total = 0.0
            worst = 0.0
            coll = j.collapsed.reshape((2 ** g.n_tasks, 3 ** g.n_sources))
            for yi in range(2 ** g.n_tasks):
                # match C-order unraveling of the collapsed task axes
                y_states = np.unravel_index(yi, (2,) * g.n_tasks)
                y = [1 if s == 0 else -1 for s in y_states]
                for li in range(3 ** g.n_sources):
                    lam_states = np.unravel_index(li, (3,) * g.n_sources)
                    lam = [(1, 0, -1)[s] for s in lam_states]
                    got = joint_probability(mu, jt, y, lam)
                    total += got
                    worst = max(worst, abs(got - coll[yi, li]))
            assert worst < 1e-9
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("y, error", [((1,), ShapeMismatch), ((1, -1), ShapeMismatch),
                                          ((1, -1, 1, -1), ShapeMismatch),
                                          ((1, 0, -1), ValueError), ((1, -1, 2), ValueError)])
    def test_task_configuration_is_checked(self, y, error):
        g = chain3()
        jt = build_junction_tree(g)
        mu = enumerate_joint(random_model(g, seed=41)).true_parameters(jt)
        lam = [1, 0, -1] * 3
        assert joint_probability(mu, jt, (1, -1, 1), lam) > 0.0
        with pytest.raises(error):
            joint_probability(mu, jt, y, lam)

    def test_zero_separator_diagnostic(self):
        g = star(2)
        jt = build_junction_tree(g)
        t = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])
        sep = np.array([1.0, 0.0])  # P(Y=-1) = 0 while cliques carry mass there
        mu = LabelModelParameters.from_tables(
            g, jt, {VarSet((0,), (0,)): t, VarSet((0,), (1,)): t},
            {VarSet((0,), ()): sep})
        prior = ClassPrior.from_balance(1.0)
        assert joint_probability(mu, jt, [-1], [-1, -1]) == 0.0
        # the zero separator zeroes Y=-1 instead of dividing by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert posterior(mu, jt, prior, [1, 1])[0] == 1.0
            post = predict_proba(LabelMatrix(np.array([[1, 1]])), mu, jt, prior)
            assert post.probs[0, 0] == 1.0
            with pytest.raises(AllZeroLikelihood):
                posterior(mu, jt, prior, [-1, -1])
            with pytest.raises(AllZeroLikelihood):
                predict_proba(LabelMatrix(np.array([[1, 1], [-1, -1]])), mu, jt, prior)


class TestPosterior:
    def test_worked_example(self):
        mu, jt = _single_source_params()
        post = posterior(mu, jt, ClassPrior.from_balance(0.5), [1])
        assert post[0] == pytest.approx(0.4 / 0.5)

    def test_all_abstain_returns_prior(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=3))
        jt = build_junction_tree(g)
        post = posterior(j.true_parameters(jt), jt, j.prior(), [0, 0, 0])
        np.testing.assert_allclose(post, j.prior().joint, atol=1e-12)

    def test_exactness_and_normalization_on_grid(self):
        for g, seed, abstaining in acceptance_grid()[:6]:
            g = validate_graph(g)
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            jt = build_junction_tree(g)
            mu = j.true_parameters(jt)
            ptab = j.posterior_table()
            for li in range(3 ** g.n_sources):
                if ptab[li].sum() == 0:
                    continue
                lam_states = np.unravel_index(li, (3,) * g.n_sources)
                lam = [(1, 0, -1)[s] for s in lam_states]
                post = posterior(mu, jt, j.prior(), lam)
                assert abs(post.sum() - 1.0) < 1e-12
                assert np.max(np.abs(post.reshape(-1) - ptab[li])) < 1e-9

    def test_batch_marginals_match_oracle_on_grid(self):
        for g, seed, abstaining in acceptance_grid():
            g = validate_graph(g)
            j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
            jt = build_junction_tree(g)
            ptab = j.posterior_table()
            live = ptab.sum(axis=1) > 0
            states = np.indices((3,) * g.n_sources).reshape(g.n_sources, -1).T
            L = LabelMatrix((1 - states[live]).astype(np.int8))
            post = predict_proba(L, j.true_parameters(jt), jt, j.prior())
            want = ptab[live].reshape((-1,) + (2,) * g.n_tasks)
            for d in range(g.n_tasks):
                pos = want.take(0, axis=1 + d).reshape(L.n, -1).sum(axis=1)
                assert np.max(np.abs(post.probs[:, d] - pos)) < 1e-9

    def test_all_zero_likelihood(self):
        mu, jt = _single_source_params()
        tbl = mu.cliques[VarSet((0,), (0,))].copy()
        tbl[:, 0] = 0.0
        tbl /= tbl.sum()
        mu = _with_clique(mu, VarSet((0,), (0,)), tbl)
        # one vote vector has no row number to name
        with pytest.raises(AllZeroLikelihood, match=r"^every task configuration has zero "
                                                    r"probability for votes \(1,\)$"):
            posterior(mu, jt, ClassPrior.from_balance(0.5), [1])


class TestPredictProba:
    def test_empty_input(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=4))
        jt = build_junction_tree(g)
        post = predict_proba(LabelMatrix(np.zeros((0, 3), dtype=np.int8)),
                             j.true_parameters(jt), jt, j.prior())
        assert post.probs.shape == (0, 1)

    def test_identical_rows_identical_outputs(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=4))
        jt = build_junction_tree(g)
        L = LabelMatrix(np.array([[1, 0, -1], [1, 0, -1], [0, 1, 1]], dtype=np.int8))
        post = predict_proba(L, j.true_parameters(jt), jt, j.prior())
        np.testing.assert_array_equal(post.probs[0], post.probs[1])

    def test_shape_mismatch(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=4))
        jt = build_junction_tree(g)
        with pytest.raises(ShapeMismatch):
            predict_proba(LabelMatrix(np.zeros((2, 4), dtype=np.int8)),
                          j.true_parameters(jt), jt, j.prior())

    def test_tree_of_another_graph_is_refused(self):
        # the tables are laid out by mu.jtree: every entry point refuses
        # another graph's tree and accepts an equal tree built again
        g = star_with_edges(4, [(2, 3)])
        j = enumerate_joint(random_model(g, seed=4))
        mu, prior = j.true_parameters(build_junction_tree(g)), j.prior()
        row = np.array([1, 0, -1, 1], dtype=np.int8)
        L = LabelMatrix(row[np.newaxis])
        other = build_junction_tree(star(4))
        with pytest.raises(ShapeMismatch, match="junction tree"):
            predict_proba(L, mu, other, prior)
        with pytest.raises(ShapeMismatch, match="junction tree"):
            posterior(mu, other, prior, row)
        with pytest.raises(ShapeMismatch, match="junction tree"):
            joint_probability(mu, other, [1], row)
        again = build_junction_tree(g)
        assert again is not mu.jtree and again == mu.jtree
        assert (predict_proba(L, mu, again, prior).probs.tobytes()
                == predict_proba(L, mu, mu.jtree, prior).probs.tobytes())
        assert (posterior(mu, again, prior, row).tobytes()
                == posterior(mu, mu.jtree, prior, row).tobytes())
        assert joint_probability(mu, again, [1], row) == joint_probability(mu, mu.jtree, [1], row)

    def test_matches_per_row_posterior(self):
        g = star_with_edges(4, [(2, 3)])
        j = enumerate_joint(random_model(g, seed=5))
        jt = build_junction_tree(g)
        mu = j.true_parameters(jt)
        L, _ = sample(j, 300, seed=6)
        post = predict_proba(L, mu, jt, j.prior())
        for r in range(0, 300, 29):
            single = posterior(mu, jt, j.prior(), L.votes[r])
            np.testing.assert_allclose(post.probs[r],
                                       marginal_positives(single), atol=1e-12)

    @pytest.mark.parametrize("g, seed", [(star(4), 8), (star_with_edges(4, [(2, 3)]), 5),
                                         (chain3(), 41)])
    def test_blocks_equal_per_row_posterior_bit_for_bit(self, g, seed):
        # chain3 has eight task configurations, which numpy would sum in
        # another order for a one-row block than for a longer one; its
        # factor groups span 5 and 4 sources, the others' 4. Blocks of up to
        # gather_rows rows gather every factor at once, longer ones read the
        # group tables on 3^4 and 3^5 states
        j = enumerate_joint(random_model(g, seed=seed))
        jt = build_junction_tree(g)
        mu = j.true_parameters(jt)
        assert {len(group.cells[0]) for group in jt.layout.groups} <= {81, 243}
        short = jt.layout.gather_rows
        assert 1 < short < 64
        L, _ = sample(j, 300, seed=6)
        rows = np.stack([marginal_positives(posterior(mu, jt, j.prior(), v)) for v in L.votes])
        for block in (1, 7, short, short + 1, 64, 81, 82, 242, 243, 244, 300):
            with mock.patch.object(inference, "BLOCK_ROWS", block):
                post = predict_proba(L, mu, jt, j.prior())
            assert post.probs.tobytes() == rows.tobytes()

    def test_zero_likelihood_row_past_the_first_block_is_named(self):
        mu, jt = _single_source_params()
        tbl = mu.cliques[VarSet((0,), (0,))].copy()
        tbl[:, 2] = 0.0  # a -1 vote is impossible
        mu = _with_clique(mu, VarSet((0,), (0,)), tbl / tbl.sum())
        votes = np.ones((10, 1), dtype=np.int8)
        votes[3] = 0
        votes[7] = -1
        with mock.patch.object(inference, "BLOCK_ROWS", 3):
            with pytest.raises(AllZeroLikelihood, match=r"for row 7 \(votes \(-1,\)\)"):
                predict_proba(LabelMatrix(votes), mu, jt, ClassPrior.from_balance(0.5))

    def test_infinite_entry_fails_its_row(self):
        # a row whose log-joint peak is not finite (here +inf, from an entry
        # that is no probability) fails, on the one-row gather and on a
        # block, as a row of zero likelihood does
        mu, jt = _single_source_params()
        tbl = mu.cliques[VarSet((0,), (0,))].copy()
        tbl[:, 2] = np.inf
        mu = _with_clique(mu, VarSet((0,), (0,)), tbl)
        votes = np.ones((10, 1), dtype=np.int8)
        votes[7] = -1
        prior = ClassPrior.from_balance(0.5)
        with pytest.raises(AllZeroLikelihood, match=r"for votes \(-1,\)"):
            posterior(mu, jt, prior, votes[7])
        with mock.patch.object(inference, "BLOCK_ROWS", 3):
            with pytest.raises(AllZeroLikelihood, match=r"for row 7 \(votes \(-1,\)\)"):
                predict_proba(LabelMatrix(votes), mu, jt, prior)

    def test_zero_entry_in_a_grid_group_names_its_row_past_the_first_block(self):
        g = star(3)
        j = enumerate_joint(random_model(g, seed=4))
        jt = build_junction_tree(g)
        clique = VarSet((0,), (1,))
        tbl = j.true_parameters(jt).cliques[clique].copy()
        tbl[:, 2] = 0.0  # L2 never votes -1
        mu = _with_clique(j.true_parameters(jt), clique, tbl / tbl.sum())
        (group,) = jt.layout.groups  # three sources: 27 group states
        assert len(group.factors) == 4 and len(group.cells[0]) == 27
        votes = np.ones((90, 3), dtype=np.int8)
        votes[5, 1] = 0
        votes[61, 1] = -1
        # blocks of 30 rows sum the group on its 27 states, then gather
        with mock.patch.object(inference, "BLOCK_ROWS", 30):
            with pytest.raises(AllZeroLikelihood, match=r"for row 61 \(votes \(1, -1, 1\)\)"):
                predict_proba(LabelMatrix(votes), mu, jt, j.prior())
        post = predict_proba(LabelMatrix(votes[:61]), mu, jt, j.prior())
        assert np.isfinite(post.probs).all()

    @pytest.mark.parametrize("g, seed", [
        (chain3(), 41),
        (DependencyGraph(2, 7, (0, 0, 0, 0, 1, 1, 1), task_edges=((0, 1),),
                         source_edges=((0, 1), (4, 5))), 7),
        (star_with_edges(8, [(0, 1), (5, 6)]), 3)])
    def test_one_gather_equals_the_grid_bit_for_bit(self, g, seed):
        # multi-task graphs with task edges, separators of degree > 1 and
        # zero entries: the gather of every factor at once and the grid's
        # group tables give the same log-joint, bit for bit, on blocks around
        # 3^4 and 3^5 rows
        j = enumerate_joint(random_model(g, seed=seed))
        jt = build_junction_tree(g)
        layout = jt.layout
        assert any(f.degree > 1 for f in layout.factors)
        clique = jt.source_cliques()[0]
        tbl = j.true_parameters(jt).cliques[clique].copy()
        tbl[(0,) * tbl.ndim] = 0.0  # some rows lose a task configuration
        mu = _with_clique(j.true_parameters(jt), clique, tbl / tbl.sum())
        L, _ = sample(j, 250, seed=seed + 1)
        for n in (80, 81, 82, 242, 243, 244):
            with _short_blocks(jt, n):
                gathered = inference._log_joint(mu, L.votes[:n])
            assert "_group_tables" not in mu.__dict__
            with _short_blocks(jt, 0):
                grid = inference._log_joint(mu, L.votes[:n])
            assert "_group_tables" in mu.__dict__
            assert np.isneginf(grid).any() and np.isfinite(grid).any()
            assert gathered.tobytes() == grid.tobytes()
            mu = _with_clique(mu, clique, mu.cliques[clique])  # fresh caches

    @pytest.mark.parametrize("g", [
        star(4), chain3(), star(100), DependencyGraph(10, 10, tuple(range(10))),
        DependencyGraph(12, 12, tuple(range(12))),
        DependencyGraph(12, 12, tuple(range(12)), task_edges=tuple((d, d + 1) for d in range(11)))])
    def test_short_blocks_are_those_the_grid_tables_outnumber(self, g):
        # a block gathers when its factors x 2^D x n terms number no more
        # than the group tables' entries. With twelve tasks no block does:
        # there is no one-gather index, and a single row reads the group
        # tables, equal bit for bit to a gather at an index built here
        jt = build_junction_tree(validate_graph(g))
        layout = jt.layout
        rng = np.random.default_rng(len(layout.factors))
        table = rng.uniform(0.05, 1.0, layout.size)
        grid = sum(t.size for t in LabelModelParameters(g, jt, table).group_tables)
        short, D = layout.gather_rows, g.n_tasks
        assert short == grid // (len(layout.factors) << D)
        assert (layout.row_base is None) == (short == 0) == (D == 12)
        votes = rng.integers(-1, 2, size=(short + 1, g.n_sources)).astype(np.int8)
        mu = LabelModelParameters(g, jt, table)
        for n in sorted({1, short, short + 1} - {0}):
            got = inference._log_joint(mu, votes[:n])
            assert ("_group_tables" in mu.__dict__) == (n > short)
            with _short_blocks(jt, n):
                gathered = inference._log_joint(mu, votes[:n])
            assert got.tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("g", [star(1), star(12), star_with_edges(7, [(0, 1), (2, 3), (5, 6)]),
                                   chain3(), star_with_edges(5, [(0, 1), (1, 2)]),
                                   # a cut between two cliques that share L5
                                   star_with_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])])
    def test_factor_groups_cover_the_layout_in_order(self, g):
        layout = build_junction_tree(validate_graph(g)).layout
        # every factor once, in layout order; each group's sources are its
        # factors' sources, first seen first, at most five, and the next
        # group's first factor would take it past five
        assert [f for group in layout.groups for f in group.factors] == list(layout.factors)
        for group, after in zip(layout.groups, layout.groups[1:] + (None,)):
            seen = list(dict.fromkeys(i for f in group.factors for i in f.vs.sources))
            assert list(group.sources) == seen and len(seen) <= 5
            if after is not None:
                assert len(set(seen) | set(after.factors[0].vs.sources)) > 5
            # each factor's state at each group state, read off its digits
            states = np.indices((3,) * len(seen)).reshape(len(seen), -1)
            for f, cells in zip(group.factors, group.cells):
                want = np.zeros(states.shape[1], dtype=np.intp)
                for i in f.vs.sources:
                    want = 3 * want + states[seen.index(i)]
                np.testing.assert_array_equal(cells, want)

    @pytest.mark.parametrize("g, seed", [(star(4), 8), (star_with_edges(5, [(0, 1), (2, 3)]), 5),
                                         (chain3(), 41)])
    def test_compiled_layout_matches_per_factor_reference_bit_for_bit(self, g, seed):
        j = enumerate_joint(random_model(g, seed=seed))
        jt = build_junction_tree(g)
        L, _ = sample(j, 400, seed=seed + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimationWarning)
            fitted = recover_parameters(L, g, j.prior(), RunConfig(ratio_fallback=True))
        clique = jt.source_cliques()[0]
        tbl = j.true_parameters(jt).cliques[clique].copy()
        tbl[(0,) * tbl.ndim] = 0.0  # some rows lose a task configuration
        zeroed = _with_clique(j.true_parameters(jt), clique, tbl / tbl.sum())
        # the kernel sums each factor group before it adds the group in, the
        # reference adds factor by factor: two orders of summing F terms,
        # each within (F - 1) * 2^-53 * sum_f |term_f| of the exact sum
        F = len(jt.layout.factors)
        for mu in (j.true_parameters(jt), fitted, zeroed):
            got = inference._log_joint(mu, L.votes)
            want = reference_log_joint(mu, L.votes)
            alive = np.isfinite(want)
            assert (np.isfinite(got) == alive).all() and (got[~alive] == -np.inf).all()
            bound = 2 * (F - 1) * 2.0 ** -53 * reference_log_joint(mu, L.votes, absolute=True)
            assert (np.abs(got[alive] - want[alive]) <= bound[alive]).all()
            post = predict_proba(L, mu, jt, j.prior())
            rows = [posterior(mu, jt, j.prior(), v) for v in L.votes[:40]]
            with mock.patch.object(inference, "_log_joint", reference_log_joint):
                np.testing.assert_allclose(predict_proba(L, mu, jt, j.prior()).probs,
                                           post.probs, rtol=0, atol=1e-12)
                for v, row in zip(L.votes, rows):
                    np.testing.assert_allclose(posterior(mu, jt, j.prior(), v), row,
                                               rtol=0, atol=1e-12)
        assert "_layout" in jt.__dict__

    def test_beats_majority_vote_on_heterogeneous_sources(self):
        accs = np.array([0.8, 0.1, 0.1, 0.1, 0.1])
        L, Y = sample_symmetric_star(accs, np.zeros(5), 0.5, 20_000, seed=7)
        y = Y[:, 0]
        g = star(5)
        prior = ClassPrior.from_balance(0.5)
        mu = recover_parameters(L, g, prior, RunConfig())
        post = predict_proba(L, mu, mu.jtree, prior)
        lm = (post.thresholded()[:, 0] == y).mean()
        mv = (majority_vote(L) == y).mean()
        assert lm > mv

    def test_monotone_in_source_accuracy(self):
        # raising one source's accuracy does not lower P(Y=1 | it voted +1,
        # the others abstained)
        g = star(2)

        def params_for(a0):
            th = CanonicalParameters(graph=g, theta_task=(0.1,),
                                     theta_acc=(a0, 0.4),
                                     theta_abstain=(0.2, 0.2))
            j = enumerate_joint(th)
            jt = build_junction_tree(g)
            return j.true_parameters(jt), jt, j.prior()

        vals = []
        for a0 in (0.2, 0.5, 0.9, 1.4):
            mu, jt, prior = params_for(a0)
            post = posterior(mu, jt, prior, [1, 0])
            vals.append(float(post[0]))
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestOneVsAll:
    def test_k2_reduces_to_binary(self):
        g = star(4)
        th = CanonicalParameters(graph=g, theta_task=(0.12,),
                                 theta_acc=(0.5, 0.7, 0.9, 0.6), abstaining=False)
        j = enumerate_joint(th)
        L, _ = sample(j, 4_000, seed=2)
        multi = np.where(L.votes == 1, 1, 2).astype(np.int8)
        p1 = float(j.prior().p_pos(0))
        cfg = RunConfig()
        ova = one_vs_all(multi, g, [p1, 1 - p1], cfg)
        mu = recover_parameters(L, g, ClassPrior.from_balance(p1), cfg)
        binary = predict_proba(L, mu, mu.jtree, ClassPrior.from_balance(p1))
        np.testing.assert_allclose(ova.class_probs[:, 0], binary.probs[:, 0],
                                   atol=1e-12)

    def test_symmetric_classes_uniform_on_abstain_row(self):
        rng = np.random.default_rng(0)
        k, n, m = 3, 9_000, 4
        yc = rng.integers(1, k + 1, n)
        votes = np.zeros((n, m), dtype=np.int8)
        for i in range(m):
            u = rng.random(n)
            correct = u < 0.55
            wrong = u >= 0.75
            votes[correct, i] = yc[correct]
            others = (yc[wrong] - 1 + rng.integers(1, k, int(wrong.sum()))) % k + 1
            votes[wrong, i] = others
        votes[0] = 0
        ova = one_vs_all(votes, star(m), [1 / 3] * 3, RunConfig())
        np.testing.assert_allclose(ova.class_probs[0], [1 / 3] * 3, atol=1e-9)

    def test_dominant_source_tracks_exact_multiclass_posterior(self):
        # one highly accurate source: the fused argmax matches the argmax of
        # the generating model's exact posterior on nearly every row
        rng = np.random.default_rng(1)
        k, n, m = 3, 50_000, 4
        q = np.array([0.9, 0.5, 0.5, 0.5])      # P(correct vote)
        r = np.array([0.05, 0.2, 0.2, 0.2])     # P(abstain)
        yc = rng.integers(1, k + 1, n)
        votes = np.zeros((n, m), dtype=np.int8)
        for i in range(m):
            u = rng.random(n)
            correct = u < q[i]
            abstain = (u >= q[i]) & (u < q[i] + r[i])
            wrong = ~(correct | abstain)
            votes[correct, i] = yc[correct]
            others = (yc[wrong] - 1 + rng.integers(1, k, int(wrong.sum()))) % k + 1
            votes[wrong, i] = others

        # exact posterior of the generating model (per-class products)
        log_lik = np.zeros((n, k))
        for c in range(1, k + 1):
            ll = np.zeros(n)
            for i in range(m):
                pc = np.where(votes[:, i] == 0, r[i],
                              np.where(votes[:, i] == c, q[i],
                                       (1 - q[i] - r[i]) / (k - 1)))
                ll += np.log(pc)
            log_lik[:, c - 1] = ll
        true_argmax = np.argmax(log_lik, axis=1) + 1

        ova = one_vs_all(votes, star(m), [1 / 3] * 3, RunConfig())
        agree = (ova.argmax_class() == true_argmax).mean()
        assert agree >= 0.95

    def test_degenerate_class(self):
        votes = np.array([[1, 1], [2, 0]], dtype=np.int8)
        with pytest.raises(DegenerateClass):
            one_vs_all(votes, star(2), [1 / 3] * 3, RunConfig(ratio_fallback=True))

    def test_reduction_mapping(self):
        votes = np.array([[1, 2, 0, 3]])
        L = reduce_one_vs_rest(votes, 2)
        np.testing.assert_array_equal(L.votes, [[-1, 1, 0, -1]])
