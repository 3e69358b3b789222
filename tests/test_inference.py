import warnings

import numpy as np
import pytest

from votefuse.config import RunConfig
from votefuse.errors import AllZeroLikelihood, DegenerateClass, ShapeMismatch
from votefuse.graph import (
    ClassPrior,
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

from conftest import acceptance_grid, star, star_with_edges


def _single_source_params():
    """The worked single-clique example: mu(Y, vote) with P(Y=1, vote=1)=0.4."""
    g = star(1)
    jt = build_junction_tree(g)
    tbl = np.array([[0.4, 0.05, 0.05],      # Y=+1: vote +1, 0, -1
                    [0.1, 0.05, 0.35]])     # Y=-1
    vs = VarSet((0,), (0,))
    return LabelModelParameters(graph=g, jtree=jt, cliques={vs: tbl},
                                separators={}), jt


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
        mu = LabelModelParameters(
            graph=g, jtree=jt,
            cliques={VarSet((0,), (0,)): t1, VarSet((0,), (1,)): t2},
            separators={VarSet((0,), ()): sep})
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

    def test_zero_separator_diagnostic(self):
        g = star(2)
        jt = build_junction_tree(g)
        t = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]])
        sep = np.array([1.0, 0.0])  # P(Y=-1) = 0 while cliques carry mass there
        mu = LabelModelParameters(
            graph=g, jtree=jt,
            cliques={VarSet((0,), (0,)): t, VarSet((0,), (1,)): t},
            separators={VarSet((0,), ()): sep})
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
        mu.cliques[VarSet((0,), (0,))] = tbl
        with pytest.raises(AllZeroLikelihood):
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
