import numpy as np
import pytest
from scipy import stats as scipy_stats

from votefuse.errors import TooLarge
from votefuse.graph import DependencyGraph
from votefuse.oracle import (
    CanonicalParameters,
    DriftStream,
    enumerate_joint,
    exact_statistics,
    random_model,
    sample,
)

from conftest import chain3, star


def random_models(n, abstaining=True):
    g = DependencyGraph(n_tasks=1, n_sources=4, assignment=(0,) * 4,
                        source_edges=((0, 1),))
    return [(g, random_model(g, seed=s, abstaining=abstaining)) for s in range(n)]


class TestEnumerateJoint:
    def test_zero_weights_give_uniform(self):
        g = star(2)
        th = CanonicalParameters(graph=g, theta_task=(0.0,), theta_acc=(0.0, 0.0))
        j = enumerate_joint(th)
        np.testing.assert_allclose(j.p_full, 1.0 / j.p_full.size, atol=1e-15)
        assert abs(j.accuracies()).max() < 1e-15

    def test_saturated_weight_pins_accuracy(self):
        g = star(2)
        th = CanonicalParameters(graph=g, theta_task=(0.0,),
                                 theta_acc=(20.0, 0.3), theta_abstain=(0.0, 0.0))
        j = enumerate_joint(th)
        assert j.accuracies()[0] > 1 - 1e-6

    def test_normalization(self):
        for g, th in random_models(5):
            j = enumerate_joint(th)
            assert abs(j.p_full.sum() - 1.0) < 1e-12
            assert abs(j.collapsed.sum() - 1.0) < 1e-12

    def test_size_cap(self):
        g = star(12)
        th = CanonicalParameters(graph=g, theta_task=(0.0,),
                                 theta_acc=(0.1,) * 12)
        with pytest.raises(TooLarge):
            enumerate_joint(th)

    def test_abstain_symmetry(self):
        # both equal-sign states of a pair carry the same mass for every
        # configuration of the remaining variables
        for g, th in random_models(5):
            j = enumerate_joint(th)
            p = j.p_full
            n_bits = g.n_tasks + 2 * g.n_sources
            idx = np.arange(p.size)
            for i in range(g.n_sources):
                b1, b2 = g.n_tasks + 2 * i, g.n_tasks + 2 * i + 1
                v1 = (idx >> b1) & 1
                v2 = (idx >> b2) & 1
                equal = v1 == v2
                flipped = idx ^ ((1 << b1) | (1 << b2))
                np.testing.assert_allclose(p[equal], p[flipped[equal]], atol=1e-15)


class TestPairIdentities:
    """Direct full-space verification of the identities the collapsed
    statistics rely on, at enumeration precision."""

    def test_vote_tracking_columns_carry_the_accuracy(self):
        # E[lambda Y] = E[v_even Y] = -E[v_odd Y]
        for g, th in random_models(20):
            j = enumerate_joint(th)
            p = j.p_full
            for i in range(g.n_sources):
                y = j.task_value(g.assignment[i])
                lam = j.lambda_value(i)
                e_lam = float(np.dot(p, lam * y))
                e_even = float(np.dot(p, j.column_value(2 * i) * y))
                e_odd = float(np.dot(p, j.column_value(2 * i + 1) * y))
                assert abs(e_lam - e_even) < 1e-12
                assert abs(e_lam + e_odd) < 1e-12

    def test_collapsed_moments_match_direct(self):
        for g, th in random_models(8):
            j = enumerate_joint(th)
            me = j.moment_estimates()
            p = j.p_full
            c = 2 * g.n_sources
            for a in range(c):
                for b in range(c):
                    direct = float(np.dot(p, j.column_value(a) * j.column_value(b)))
                    assert abs(me.M[a, b] - direct) < 1e-12
                direct1 = float(np.dot(p, j.column_value(a)))
                assert abs(me.first_moments[a] - direct1) < 1e-12

    def test_independent_pair_product_factorizes(self):
        # E[v_a Y * v_b Y] = E[v_a Y] E[v_b Y] for conditionally independent columns
        for g, th in random_models(20):
            j = enumerate_joint(th)
            p = j.p_full
            y = j.task_value(0)
            for a in (0, 1):
                for b in (4, 5, 6, 7):  # sources 2 and 3 are independent of 0 and 1
                    lhs = float(np.dot(p, j.column_value(a) * j.column_value(b)))
                    rhs = (float(np.dot(p, j.column_value(a) * y))
                           * float(np.dot(p, j.column_value(b) * y)))
                    assert abs(lhs - rhs) < 1e-12

    def test_dependent_pair_even_parity(self):
        # E[v_a v_b Y] = E[v_a v_b] E[Y] for a dependent pair (even clique size)
        for g, th in random_models(20):
            j = enumerate_joint(th)
            p = j.p_full
            y = j.task_value(0)
            a, b = 0, 2  # vote-tracking columns of the dependent sources 0, 1
            prod = j.column_value(a) * j.column_value(b)
            lhs = float(np.dot(p, prod * y))
            rhs = float(np.dot(p, prod)) * float(np.dot(p, y))
            assert abs(lhs - rhs) < 1e-12

    def test_abstain_indicator_independent_of_task(self):
        # P(lambda_i = 0, Y = 1) = P(lambda_i = 0) P(Y = 1)
        for g, th in random_models(10):
            j = enumerate_joint(th)
            p = j.p_full
            y = j.task_value(0)
            for i in range(g.n_sources):
                zero = (j.lambda_value(i) == 0).astype(float)
                lhs = float(np.dot(p, zero * (y == 1)))
                rhs = float(np.dot(p, zero)) * float(np.dot(p, (y == 1).astype(float)))
                assert abs(lhs - rhs) < 1e-12


class TestExactStatistics:
    def test_uniform_joint(self):
        g = star(2)
        th = CanonicalParameters(graph=g, theta_task=(0.0,), theta_acc=(0.0, 0.0))
        me, acc_cols, mu = exact_statistics(enumerate_joint(th))
        assert abs(acc_cols).max() < 1e-14
        for vs, tbl in mu.cliques.items():
            marg_task = tbl.sum(axis=1)
            np.testing.assert_allclose(marg_task, [0.5, 0.5], atol=1e-14)

    def test_tables_are_distributions(self):
        for g, th in random_models(5):
            _, _, mu = exact_statistics(enumerate_joint(th))
            mu.validate(tol_sum=1e-12, tol_sep=1e-12)

    def test_conditional_accuracy_matches_restricted_moments(self):
        g, th = random_models(1)[0]
        j = enumerate_joint(th)
        me = j.moment_estimates()
        # the moments restricted to the rows where source 0 abstains, held
        # in the pipeline's stacked form
        M0, first0 = j.restricted_moments(0)
        t = me.cond_sources.index(0)
        assert me.cond_M[t].tobytes() == M0.tobytes()
        assert me.cond_first[t].tobytes() == first0.tobytes()
        # E[lambda_1 Y | lambda_0 = 0] equals the restricted moment of column 2
        direct = j.conditional_accuracy(target=1, cond=0)
        p = j.p_full
        mask = j.lambda_value(0) == 0
        w = np.where(mask, p, 0.0) / p[mask].sum()
        check = float(np.dot(w, j.column_value(2) * j.task_value(0)))
        assert abs(direct - check) < 1e-12
        assert abs(first0[2] - float(np.dot(w, j.column_value(2)))) < 1e-12
        assert abs(M0[2, 4] - float(np.dot(w, j.column_value(2) * j.column_value(4)))) < 1e-12


class TestSampler:
    def test_seed_determinism(self):
        g, th = random_models(1)[0]
        j = enumerate_joint(th)
        L1, Y1 = sample(j, 500, seed=9)
        L2, Y2 = sample(j, 500, seed=9)
        np.testing.assert_array_equal(L1.votes, L2.votes)
        np.testing.assert_array_equal(Y1, Y2)

    def test_empirical_moments_concentrate(self):
        g, th = random_models(1)[0]
        j = enumerate_joint(th)
        me = j.moment_estimates()
        L, Y = sample(j, 1_000_000, seed=4)
        # second moments of the vote product (both sources voting) concentrate
        v = L.votes.astype(np.float64)
        for a in range(g.n_sources):
            for b in range(a + 1, g.n_sources):
                emp = float((v[:, a] * v[:, b]).mean())
                assert abs(emp - me.M[2 * a, 2 * b]) < 0.005

    def test_abstain_rate_matches(self):
        g, th = random_models(1)[0]
        j = enumerate_joint(th)
        me = j.moment_estimates()
        L, _ = sample(j, 100_000, seed=8)
        emp = (L.votes == 0).mean(axis=0)
        assert np.max(np.abs(emp - me.abstain_rates)) < 0.01

    def test_chi_square_goodness_of_fit(self):
        g = star(1)
        th = random_model(g, seed=2)
        j = enumerate_joint(th)
        L, Y = sample(j, 100_000, seed=3)
        # cells over (Y, lambda): 2 x 3 states
        yi = (1 - Y[:, 0]) // 2
        li = 1 - L.votes[:, 0]
        counts = np.bincount(yi * 3 + li, minlength=6)
        expected = j.collapsed.reshape(-1) * 100_000
        res = scipy_stats.chisquare(counts, expected)
        assert res.pvalue > 0.001


def test_chain_model_statistics():
    g = chain3()
    th = random_model(g, seed=1)
    j = enumerate_joint(th)
    assert abs(j.collapsed.sum() - 1.0) < 1e-12
    prior = j.prior()
    assert prior.n_tasks == 3
    me = j.moment_estimates()
    assert me.M.shape == (18, 18)
    np.testing.assert_allclose(np.diag(me.M), 1.0)


@pytest.mark.parametrize("kwargs, name", [({"flip_period": 0}, "flip_period"),
                                          ({"flip_period": -4}, "flip_period"),
                                          ({"n_steps": -1}, "n_steps")])
def test_drift_stream_rejects_bad_counts(kwargs, name):
    # a flip period of 0 used to floor-divide by zero (a RuntimeWarning, and
    # otherwise a stationary stream); a negative length failed in numpy
    args = dict(base=random_model(star(3), seed=0), n_steps=10, seed=1)
    args.update(kwargs)
    with pytest.raises(ValueError, match=name):
        DriftStream(**args)
