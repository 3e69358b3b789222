"""Shared fixtures: the oracle-backed model grid used across the suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from votefuse.graph import DependencyGraph


def child_env() -> dict:
    """This environment with the package's ``src`` directory first on
    PYTHONPATH, so child interpreters import the checkout under test."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def reference_augment(votes, policy):
    """The former per-column pair encoding loop, kept as the reference for the
    block encoder."""
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
