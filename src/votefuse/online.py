"""Rolling-window re-estimation interleaved with per-sample labeling.

Every statistic the recovery stage consumes is a plain average, so a window
of size W is maintained by adding the newest augmented row's contributions
and subtracting the evicted row's. Fitting a step is then the same
closed-form solve as the batch path, on the windowed averages; per-step cost
does not grow with the stream length.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .augment import AbstainPolicy, augment_graph, augment_row, pair_votes
from .config import RunConfig
from .errors import ConfigError, EstimationWarning, VoteFuseError
from .graph import (ClassPrior, DependencyGraph, LabelMatrix, LabelModelParameters,
                    build_junction_tree, validate_graph)
from .inference import marginal_positives, posterior
from .moments import RunningStats, enumerate_triplets, tracked_statistics
from .recovery import compile_cliques, recover_from_moments


@dataclass
class StepResult:
    params: Optional[LabelModelParameters]
    posterior_pos: np.ndarray  # P(Y_d = 1 | current row) per task
    warmup: bool
    stale: bool
    t: int


class RollingState:
    """Single-writer streaming estimator state.

    Keeps the last W augmented rows in one int8 ring buffer plus running
    integer sums of every windowed statistic. ``window=None`` means
    cumulative estimation (never evict). The buffer grows by doubling up to
    W rows (without bound when cumulative). Everything that depends on the
    graph alone is built at construction: the junction tree with its table
    layout and compiled cliques (the prior-filled tables among them) and the
    triplet plan (with each anchor's own block for the abstain-conditioned
    fits), so a step only updates the window, fits it and scores its row,
    with the row checked once. Parameters recovered at each step are
    immutable snapshots; their per-table views and log table are built on
    first use. On a failed window the last valid snapshot is reused and the
    step is flagged stale.
    """

    def __init__(self, g: DependencyGraph, cfg: RunConfig = RunConfig(),
                 window: Optional[int] = None, warmup: Optional[int] = None):
        for name, rows in (("window", window), ("warmup", warmup)):
            if rows is None:
                continue
            if isinstance(rows, bool) or not isinstance(rows, numbers.Integral):
                raise ConfigError(f"{name} must be a whole number of rows, got {rows!r}")
            if rows < 1:
                raise ConfigError(f"{name} must be positive, got {rows}")
        self.graph = validate_graph(g)
        cfg.check_sources(self.graph.n_sources)
        self.cfg = cfg
        self.window = window
        m = self.graph.n_sources
        self.warmup = warmup if warmup is not None else max(100, 10 * m)
        if self.window is not None and self.warmup > self.window:
            self.warmup = self.window
        self.jtree = build_junction_tree(self.graph)
        compile_cliques(self.jtree)  # and the tree's table layout
        self.plan = enumerate_triplets(augment_graph(self.graph), cfg)
        self.stats = RunningStats(m, *tracked_statistics(self.graph))
        self.t = 0
        self.abstain_ordinals = np.zeros(m, dtype=np.int64)
        # the augmented row of step t sits at t % len(self._rows)
        self._rows = np.empty((min(window or 64, 64), 2 * m), dtype=np.int8)
        self.last_params: Optional[LabelModelParameters] = None
        self.stale_steps = 0
        self._stale_warned = False

    # -- bookkeeping -----------------------------------------------------------

    @property
    def buffered(self) -> int:
        return min(self.t, len(self._rows))

    def window_rows(self) -> np.ndarray:
        """Raw vote rows currently inside the window (oldest first)."""
        idx = (self.t + np.arange(-self.buffered, 0)) % len(self._rows)
        return pair_votes(self._rows[idx])

    def window_policy(self) -> AbstainPolicy:
        """A policy whose per-column phase reproduces this stream's abstain
        fill-ins for the buffered rows, so a batch augmentation of
        ``window_rows()`` matches the stream bit for bit."""
        phase = self.abstain_ordinals - (self.window_rows() == 0).sum(axis=0)
        return AbstainPolicy(mode=self.cfg.policy.mode, seed=self.cfg.policy.seed,
                             phase=tuple(int(p) for p in phase))

    # -- the step ---------------------------------------------------------------

    def step(self, lam_t: Sequence[int], prior_t: ClassPrior) -> StepResult:
        raw = np.asarray(lam_t)
        if raw.shape != (self.graph.n_sources,):
            raise ValueError(f"expected {self.graph.n_sources} votes, got {raw.shape}")
        try:
            row = LabelMatrix(raw.reshape(1, -1))  # checked once, for posterior too
        except ValueError:
            bad = np.flatnonzero((raw != -1) & (raw != 0) & (raw != 1))
            raise ValueError(
                f"vote {raw[bad[0]]} at position {bad[0]} is not -1, 0 or +1") from None
        aug = augment_row(row.votes[0], self.cfg.policy, self.abstain_ordinals)
        self.stats.add(aug)
        if self.t == len(self._rows) and self.t != self.window:  # grow; nothing evicted yet
            grown = min(2 * self.t, self.window or 2 * self.t)
            self._rows = np.resize(self._rows, (grown, self._rows.shape[1]))
        slot = self.t % len(self._rows)
        if self.t >= len(self._rows):  # the window is full: evict its oldest row
            self.stats.remove(self._rows[slot])
        self._rows[slot] = aug
        self.t += 1

        if self.t < self.warmup:
            return StepResult(params=None, posterior_pos=self._prior_pos(prior_t),
                              warmup=True, stale=False, t=self.t)

        fresh = None
        failure = None
        try:
            # the fit warns of nothing: its diagnostics on the returned
            # parameters record floored accuracies, sign ties and substitutions
            moments = self.stats.to_moments(prior_t)
            fresh = recover_from_moments(moments, self.graph, self.cfg,
                                         jtree=self.jtree, plan=self.plan)
        except VoteFuseError as exc:
            failure = exc

        # Degrade rather than interrupt the stream: a failed window (or a row
        # the fresh tables assign zero mass) falls back to the last valid
        # parameters, and to the prior if even those cannot score the row.
        for params, is_stale in ((fresh, False), (self.last_params, True)):
            if params is None:
                continue
            try:
                post = posterior(params, self.jtree, prior_t, row)
            except VoteFuseError as exc:
                failure = failure or exc
                continue
            if is_stale:
                # a copy, so the snapshot returned fresh earlier stays fresh;
                # it shares the frozen parameter vector
                self._note_stale(failure)
                params = LabelModelParameters(params.graph, params.jtree, params.table,
                                              replace(params.diagnostics, stale=True))
            else:
                self.last_params = params
            return StepResult(params=params,
                              posterior_pos=marginal_positives(post),
                              warmup=False, stale=is_stale, t=self.t)

        self._note_stale(failure)
        return StepResult(params=None, posterior_pos=self._prior_pos(prior_t), warmup=False,
                          stale=True, t=self.t)

    def _prior_pos(self, prior: ClassPrior) -> np.ndarray:
        return np.array([prior.p_pos(d) for d in range(self.graph.n_tasks)])

    def _note_stale(self, failure) -> None:
        self.stale_steps += 1
        if not self._stale_warned:
            warnings.warn(
                f"window fit unusable at step {self.t} (stream row {self.t - 1}, "
                f"counted from 0): {failure}; degrading to stale parameters or "
                f"the prior (warning once; see StepResult.stale)",
                EstimationWarning,
            )
            self._stale_warned = True


# ---------------------------------------------------------------------------
# window sweep
# ---------------------------------------------------------------------------

def parameter_error(est: LabelModelParameters, truth: LabelModelParameters) -> float:
    """l2 distance between two parameter sets over all clique and separator
    tables; both must be laid out by equal junction trees."""
    if est.jtree != truth.jtree:
        raise ValueError("parameter sets over different junction trees")
    return float(np.linalg.norm(est.table - truth.table))


def run_stream(stream, window: Optional[int], cfg: RunConfig,
               prior: ClassPrior, warmup: Optional[int] = None,
               score_posterior: bool = True) -> dict:
    """Drive a RollingState over an oracle-backed stream and score it.

    Returns per-step posterior errors |P_hat - P_true| (first task) and
    parameter errors against the regime-true parameters, post warmup.
    """
    state = RollingState(stream.base.graph, cfg, window=window, warmup=warmup)
    post_err, param_err = [], []
    for t in range(stream.n_steps):
        res = state.step(stream.rows[t], prior)
        if res.warmup:
            continue
        if score_posterior:
            truth = stream.true_posterior_pos(t)
            post_err.append(float(np.abs(res.posterior_pos - truth).mean()))
        if res.params is not None:
            param_err.append(parameter_error(res.params, stream.true_parameters_at(t)))
    return {
        "posterior_error": float(np.mean(post_err)) if post_err else float("nan"),
        "parameter_error": float(np.mean(param_err)) if param_err else float("nan"),
        "steps_scored": len(param_err),
    }


def sweep_window(stream, candidate_windows: Sequence[int],
                 cfg: RunConfig = RunConfig(),
                 prior: Optional[ClassPrior] = None,
                 warmup: Optional[int] = None) -> dict:
    """Mean parameter error per candidate window on an oracle-backed stream.

    Returns the error curve and the empirical minimizer; the analytic optimum
    depends on constants that are not observable, so the sweep substitutes.
    """
    if prior is None:
        prior = ClassPrior.from_balance(0.5)
    errors = {}
    for W in candidate_windows:
        res = run_stream(stream, int(W), cfg, prior, warmup=warmup,
                         score_posterior=False)
        errors[int(W)] = res["parameter_error"]
    best = min(sorted(errors), key=lambda w: errors[w])
    return {"errors": errors, "best_window": best}
