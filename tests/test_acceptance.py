"""Acceptance suite: one test per release criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every expected value is computed by the exact enumerator or frozen
from the standalone transform construction; the fitted pipeline never sees a
hidden label.
"""

import subprocess
import sys
import time
import warnings

import numpy as np

from votefuse.augment import augment_graph, augment_matrix
from votefuse.config import RunConfig
from votefuse.graph import (
    ClassPrior,
    DependencyGraph,
    LabelMatrix,
    VarSet,
    build_junction_tree,
    validate_graph,
)
from votefuse.inference import majority_vote, posterior, predict_proba
from votefuse.moments import (
    EPS_ACC,
    EPS_DEN,
    enumerate_triplets,
    estimate_accuracies,
    estimate_moments,
    resolve_signs,
    Accuracies,
)
from votefuse.online import run_stream
from votefuse.oracle import (
    CanonicalParameters,
    DriftStream,
    enumerate_joint,
    random_model,
    sample,
    sample_symmetric_star,
    star_graph,
)
from votefuse.recovery import build_transform, mu_flatten, recover_from_moments, recover_parameters

from conftest import acceptance_grid, child_env


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------------------
# 1. oracle closure on the exact-moment path
# -------------------------------------------------------------------------

def test_criterion_1_oracle_closure():
    t0 = time.perf_counter()
    worst = 0.0
    grid = acceptance_grid()
    assert len(grid) == 12
    for g, seed, abstaining in grid:
        g = validate_graph(g)
        j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
        jt = build_junction_tree(g)
        truth = j.true_parameters(jt)
        mu = recover_from_moments(j.moment_estimates(), g, RunConfig())
        for vs in jt.cliques:
            worst = max(worst, float(np.max(np.abs(mu.cliques[vs] - truth.cliques[vs]))))
        for vs, _deg in jt.separators:
            worst = max(worst, float(np.max(np.abs(mu.separators[vs] - truth.separators[vs]))))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (oracle closure)",
            worst <= 1e-9 and elapsed < 10.0,
            f"max table-entry error {worst:.2e} (<= 1e-9), "
            f"runtime {elapsed:.2f}s (< 10 s) over 12 models")


# -------------------------------------------------------------------------
# 2. sampled recovery at the root-n rate
# -------------------------------------------------------------------------

def test_criterion_2_sampled_recovery_rate():
    t0 = time.perf_counter()
    g = star_graph(5)
    targets = np.array([0.6, 0.675, 0.75, 0.825, 0.9])
    th = CanonicalParameters(graph=g, theta_task=(0.0,),
                             theta_acc=tuple(np.arctanh(targets)),
                             abstaining=False)
    j = enumerate_joint(th)
    truth = j.accuracies()
    G = augment_graph(g)
    plan = enumerate_triplets(G)
    cfg = RunConfig()

    def fit_err(n, seed):
        L, _ = sample(j, n, seed)
        me = estimate_moments(augment_matrix(L, cfg.policy), j.prior(), G)
        acc = estimate_accuracies(me, plan, cfg)
        return float(np.linalg.norm(acc.per_source - truth))

    err_100k = float(np.mean([fit_err(100_000, s) for s in range(20)]))
    err_10k = float(np.mean([fit_err(10_000, 100 + s) for s in range(20)]))
    err_40k = float(np.mean([fit_err(40_000, 200 + s) for s in range(20)]))
    ratio = err_10k / err_40k
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (sampled recovery rate)",
            err_100k <= 0.02 and ratio >= 1.67 and elapsed < 30.0,
            f"mean ||a_hat - a||_2 at n=100k: {err_100k:.4f} (<= 0.02), "
            f"10k/40k error ratio {ratio:.2f} (>= 1.67), "
            f"runtime {elapsed:.1f}s (< 30 s)")


# -------------------------------------------------------------------------
# 3. transform identity
# -------------------------------------------------------------------------

def _r_direct(joint, d, sources, sign):
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
            prod = prod * task_vals
            any_z = True
        for t, mem in enumerate(membership):
            if mem == 1:
                prod = prod * vote[sources[t]]
                any_z = True
            elif mem == 2:
                mask &= vote[sources[t]] == 0
        if not any_z:
            r[idx] = float(p[mask].sum()) if sign == 1 else 0.0
        else:
            r[idx] = float(p[mask & (prod == sign)].sum())
    return r


A1_REFERENCE = np.array([
    [1, 1, 1, 1, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1],
    [0, 0, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
], dtype=float)


def test_criterion_3_transform_identity():
    exact_a1 = bool(np.array_equal(build_transform(1).A, A1_REFERENCE))
    g = DependencyGraph(n_tasks=1, n_sources=2, assignment=(0, 0),
                        source_edges=((0, 1),))
    worst = 0.0
    for seed in range(50):
        j = enumerate_joint(random_model(g, seed=seed))
        for vs in (VarSet((0,), (0,)), VarSet((0,), (1,)), VarSet((0,), (0, 1))):
            mu = mu_flatten(j.clique_table(vs))
            T = build_transform(len(vs.sources))
            worst = max(worst, float(np.max(np.abs(
                T.A @ mu - _r_direct(j, 0, vs.sources, 1)))))
            worst = max(worst, float(np.max(np.abs(
                T.B @ mu - _r_direct(j, 0, vs.sources, -1)))))
    _report("criterion 3 (transform identity)",
            exact_a1 and worst <= 1e-10,
            f"single-source transform matches the reference matrix exactly: "
            f"{exact_a1}; max |A_s mu - r| over 50 joints, s in {{1,2}}: "
            f"{worst:.2e} (<= 1e-10)")


# -------------------------------------------------------------------------
# 4. inference exactness
# -------------------------------------------------------------------------

def test_criterion_4_inference_exactness():
    worst = 0.0
    worst_sum = 0.0
    for g, seed, abstaining in acceptance_grid():
        g = validate_graph(g)
        j = enumerate_joint(random_model(g, seed=seed, abstaining=abstaining))
        jt = build_junction_tree(g)
        mu = j.true_parameters(jt)
        prior = j.prior()
        ptab = j.posterior_table()
        m = g.n_sources
        for li in range(3 ** m):
            if ptab[li].sum() == 0:
                continue
            lam_states = np.unravel_index(li, (3,) * m)
            lam = [(1, 0, -1)[s] for s in lam_states]
            post = posterior(mu, jt, prior, lam)
            worst_sum = max(worst_sum, abs(float(post.sum()) - 1.0))
            worst = max(worst, float(np.max(np.abs(post.reshape(-1) - ptab[li]))))
    _report("criterion 4 (inference exactness)",
            worst <= 1e-9 and worst_sum <= 1e-12,
            f"max posterior error vs enumerated conditionals {worst:.2e} "
            f"(<= 1e-9), max |sum - 1| {worst_sum:.2e} (<= 1e-12), "
            f"all vote configurations on all 12 grid models")


# -------------------------------------------------------------------------
# 5. speed claim
# -------------------------------------------------------------------------

SPEED_SNIPPET = """
import time
import numpy as np
from votefuse.graph import ClassPrior, LabelMatrix
from votefuse.oracle import star_graph, sample_symmetric_star
from votefuse.recovery import recover_parameters
from votefuse.config import RunConfig

m, n = 100, 100_000
rng = np.random.default_rng(0)
a = rng.uniform(0.3, 0.8, m)
L, _ = sample_symmetric_star(a, np.zeros(m), 0.5, n, seed=1)
prior = ClassPrior.from_balance(0.5)
cfg = RunConfig()
recover_parameters(LabelMatrix(L.votes[:2000]), star_graph(m), prior, cfg)  # warm
t0 = time.perf_counter()
recover_parameters(L, star_graph(m), prior, cfg)
print(time.perf_counter() - t0)
"""


def test_criterion_5_fit_speed():
    env = child_env()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", SPEED_SNIPPET],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    elapsed = float(proc.stdout.strip().splitlines()[-1])
    _report("criterion 5 (fit speed)",
            elapsed < 1.0,
            f"fit on n=100,000, m=100 conditionally independent sources took "
            f"{elapsed:.3f}s single-threaded (< 1 s)")


# -------------------------------------------------------------------------
# 6. ablation directions
# -------------------------------------------------------------------------

def test_criterion_6a_abstain_ablation():
    g = star_graph(5)
    accs = np.array([0.25, 0.3, 0.35, 0.3, 0.4])
    rates = np.full(5, 0.6)
    prior = ClassPrior.from_balance(0.5)
    cfg = RunConfig()
    errs_aug, errs_rand = [], []
    for seed in range(5):
        L, Y = sample_symmetric_star(accs, rates, 0.5, 20_000, seed=seed)
        y = Y[:, 0]
        mu = recover_parameters(L, g, prior, cfg)
        post = predict_proba(L, mu, mu.jtree, prior)
        errs_aug.append(float((post.thresholded()[:, 0] != y).mean()))

        rng = np.random.default_rng(1_000 + seed)
        votes = L.votes.copy()
        ab = votes == 0
        votes[ab] = rng.choice(np.array([-1, 1], dtype=np.int8), size=int(ab.sum()))
        L2 = LabelMatrix(votes)
        mu2 = recover_parameters(L2, g, prior, cfg)
        post2 = predict_proba(L2, mu2, mu2.jtree, prior)
        errs_rand.append(float((post2.thresholded()[:, 0] != y).mean()))
    strictly_worse = all(r > a for a, r in zip(errs_aug, errs_rand))
    _report("criterion 6a (abstain ablation direction)",
            strictly_worse,
            f"label error with augmentation {np.mean(errs_aug):.4f} vs random "
            f"+/-1 replacement {np.mean(errs_rand):.4f}; strictly worse on "
            f"every seed: {strictly_worse}")


def _anchor_magnitudes(M, a, j, k):
    """Clamped |a_a| = sqrt(|M_aj M_ak / M_jk|) from the single triplet
    (a, j, k); NaN where a pairwise moment is below ``EPS_DEN``."""
    mij, mik, mjk = M[a, j], M[a, k], M[j, k]
    ok = (np.abs(mij) >= EPS_DEN) & (np.abs(mik) >= EPS_DEN) & (np.abs(mjk) >= EPS_DEN)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.clip(np.sqrt(np.abs(mij * mik / mjk)), EPS_ACC, 1.0)
    return np.where(ok, vals, np.nan)


def test_criterion_6b_single_triplet_ablation():
    g = star_graph(5)
    prior = ClassPrior.from_balance(0.5)
    cfg = RunConfig()
    G = augment_graph(g)
    plan = enumerate_triplets(G, cfg)
    # every valid triplet per anchor: on a star, any two partner columns of
    # distinct sources
    indep = plan.independent
    triplets = {c: [(j, k) for j in p for k in p if j < k and indep[j, k]]
                for c, p in plan.partners.items()}
    n_better = 0
    agg_all, worst_all = [], []
    for seed in range(20):
        L, Y = sample_symmetric_star(np.array([0.5, 0.55, 0.6, 0.5, 0.45]),
                                     np.full(5, 0.35), 0.5, 2_500,
                                     seed=500 + seed)
        y = Y[:, 0]
        mu = recover_parameters(L, g, prior, cfg)
        agg_err = float((predict_proba(L, mu, mu.jtree, prior)
                         .thresholded()[:, 0] != y).mean())

        me = estimate_moments(augment_matrix(L, cfg.policy), prior, G)
        rng = np.random.default_rng(seed)
        errs = []
        for _ in range(25):
            mags = np.full(10, np.nan)
            for c, pairs in triplets.items():
                j, k = pairs[rng.integers(len(pairs))]
                val = _anchor_magnitudes(me.M, c, j, k)
                # a degenerate triplet counts as the accuracy floor
                mags[c] = EPS_ACC if np.isnan(val) else float(val)
            values, _, _ = resolve_signs(mags, me.M, plan, cfg, me.first_moments, prior)
            np.negative(values[0::2], out=values[1::2])
            acc1 = Accuracies(values=values, diagnostics={})
            mu1 = recover_from_moments(me, g, cfg, plan=plan, acc=acc1)
            errs.append(float((predict_proba(L, mu1, mu1.jtree, prior)
                               .thresholded()[:, 0] != y).mean()))
        worst = max(errs)
        agg_all.append(agg_err)
        worst_all.append(worst)
        n_better += worst > agg_err
    _report("criterion 6b (single-triplet ablation direction)",
            n_better == 20,
            f"worst single-triplet label error exceeds the aggregated error on "
            f"{n_better}/20 seeds (mean worst {np.mean(worst_all):.4f} vs mean "
            f"aggregated {np.mean(agg_all):.4f})")


# -------------------------------------------------------------------------
# 7. online drift
# -------------------------------------------------------------------------

def test_criterion_7_online_drift():
    t0 = time.perf_counter()
    g = star_graph(5)
    targets = np.linspace(0.55, 0.85, 5)
    th = CanonicalParameters(graph=g, theta_task=(np.arctanh(0.3),),
                             theta_acc=tuple(np.arctanh(targets)),
                             abstaining=False)
    prior = ClassPrior.from_balance(0.65)
    cfg = RunConfig(sign_strategy="ratio-anchor")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        drift = DriftStream(base=th, n_steps=6_000, seed=11, flip_period=2_000)
        w = run_stream(drift, 500, cfg, prior, warmup=200)
        c = run_stream(drift, None, cfg, prior, warmup=200)
        calm = DriftStream(base=th, n_steps=3_000, seed=12, flip_period=None)
        w0 = run_stream(calm, 500, cfg, prior, warmup=200)
        c0 = run_stream(calm, None, cfg, prior, warmup=200)
    elapsed = time.perf_counter() - t0
    drift_ok = w["posterior_error"] < c["posterior_error"]
    calm_ok = c0["posterior_error"] <= w0["posterior_error"]
    _report("criterion 7 (online drift)",
            drift_ok and calm_ok and elapsed < 60.0,
            f"sign-flip drift: windowed W=500 error {w['posterior_error']:.4f} "
            f"< cumulative {c['posterior_error']:.4f}: {drift_ok}; zero drift "
            f"reverses: cumulative {c0['posterior_error']:.4f} <= windowed "
            f"{w0['posterior_error']:.4f}: {calm_ok}; runtime {elapsed:.1f}s "
            f"(< 60 s)")


# -------------------------------------------------------------------------
# 8. majority-vote dominance
# -------------------------------------------------------------------------

def test_criterion_8_majority_vote_dominance():
    g = star_graph(5)
    accs = np.array([0.8, 0.1, 0.1, 0.1, 0.1])  # one strong, four weak sources
    prior = ClassPrior.from_balance(0.5)
    cfg = RunConfig()
    gaps = []
    for seed in range(10):
        L, Y = sample_symmetric_star(accs, np.zeros(5), 0.5, 50_000, seed=seed)
        y = Y[:, 0]
        mu = recover_parameters(L, g, prior, cfg)
        post = predict_proba(L, mu, mu.jtree, prior)
        lm = float((post.thresholded()[:, 0] == y).mean())
        mv = float((majority_vote(L) == y).mean())
        gaps.append(lm - mv)
    mean_gap = float(np.mean(gaps))
    _report("criterion 8 (majority-vote dominance)",
            mean_gap >= 0.03,
            f"thresholded posteriors beat majority vote by "
            f"{100 * mean_gap:.1f} points on agreement with the hidden labels "
            f"(>= 3 points) over 10 seeds")
