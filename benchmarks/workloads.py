"""Workload definitions: seeded input generation and exact ground truth.

Every workload draws its inputs from ``numpy.random.default_rng`` seeded with
the run seed, so one seed always gives byte-identical files. The generated
files are the only thing the measured process hands to votefuse; the truth
arrays (generating accuracies, exact posteriors) are used for scoring only.

Batch workloads (``tall``, ``csv``) use single-task symmetric channels from
``oracle.sample_symmetric_star``: source i votes with
P(lambda = y | Y = y) = (1 - r + a_i) / 2 and abstains with probability r, so
its accuracy E[lambda_i Y] is a_i.
The ``stream`` workload is an ``oracle.DriftStream`` whose exact posteriors
come from enumeration.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("tall", "csv", "stream")

ACC_RANGE = (0.3, 0.65)
ABSTAIN_RATE = 0.3
BATCH_BALANCE = 0.6

STREAM_BALANCE = 0.65
STREAM_SIGNS = "ratio-anchor"

# "full" is what the benchmark measures; "tiny" only exercises every code
# path of the harness in seconds (self-test).
SIZES = {
    "full": {
        "tall": {"n": 300_000, "m": 100},
        "csv": {"n": 50_000, "m": 100},
        "stream": {"m": 8, "steps": 3000, "flip_period": 1000,
                   "window": 500, "warmup": 200},
    },
    "tiny": {
        "tall": {"n": 3000, "m": 12},
        "csv": {"n": 1500, "m": 12},
        "stream": {"m": 8, "steps": 500, "flip_period": 200,
                   "window": 150, "warmup": 60},
    },
}

# The batch warm-up fits this many leading rows and columns of the input.
WARM_ROWS, WARM_COLS = 2000, 10


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# exact truth for the batch workloads
# ---------------------------------------------------------------------------

def _vote_probs(a: np.ndarray, r: float) -> np.ndarray:
    """P(lambda_i = state | Y), shape (m, 3 states (+1, 0, -1), 2 classes (+1, -1))."""
    p = np.empty((a.size, 3, 2))
    right, wrong = (1.0 - r + a) / 2.0, (1.0 - r - a) / 2.0
    p[:, 0, 0], p[:, 0, 1] = right, wrong
    p[:, 1, :] = r
    p[:, 2, 0], p[:, 2, 1] = wrong, right
    return p


def exact_posterior(votes: np.ndarray, a: np.ndarray, r: float,
                    balance: float) -> np.ndarray:
    """P(Y = +1 | votes) under the generating model, one value per row."""
    pv = _vote_probs(a, r)
    state = (1 - votes).astype(np.intp)  # +1 -> 0, 0 -> 1, -1 -> 2
    log_odds = np.full(votes.shape[0], np.log(balance / (1.0 - balance)))
    for j in range(votes.shape[1]):
        lik = pv[j, state[:, j], :]
        log_odds += np.log(lik[:, 0]) - np.log(lik[:, 1])
    return np.exp(-np.logaddexp(0.0, -log_odds))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _batch_inputs(workload: str, seed: int, size: dict):
    from votefuse.oracle import sample_symmetric_star

    rng = _rng(workload, seed)
    n, m = size["n"], size["m"]
    a = rng.uniform(*ACC_RANGE, m)
    L, _ = sample_symmetric_star(a, np.full(m, ABSTAIN_RATE), BATCH_BALANCE, n,
                                 seed=int(rng.integers(2**31)))
    votes = np.array(L.votes)
    post = exact_posterior(votes, a, ABSTAIN_RATE, BATCH_BALANCE)
    meta = {"n": n, "m": m, "edges": [], "balance": BATCH_BALANCE}
    return votes, a, post, meta


def _write_csv(path: Path, votes: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(map(str, row)) for row in votes.tolist()))
        fh.write("\n")


def stream_model(m: int):
    """Fixed drifting model: one task, m abstaining sources, one source edge.

    The seed only draws the rows, so every seed sees the same regimes.
    """
    from votefuse.graph import DependencyGraph
    from votefuse.oracle import CanonicalParameters

    g = DependencyGraph(n_tasks=1, n_sources=m, assignment=(0,) * m,
                        source_edges=((0, 1),))
    return CanonicalParameters(
        graph=g,
        theta_task=(float(np.arctanh(2 * STREAM_BALANCE - 1)),),
        theta_acc=tuple(np.arctanh(np.linspace(0.55, 0.85, m))),
        theta_abstain=tuple(np.linspace(-0.4, 0.2, m)),
        theta_dep={(0, 1): 0.3},
        abstaining=True,
    )


def generate(workload: str, seed: int, size_name: str, out: Path) -> dict:
    """Write the inputs of one workload run into ``out``; return its manifest."""
    from votefuse import fileio
    from votefuse.oracle import DriftStream, star_graph

    size = SIZES[size_name][workload]
    out.mkdir(parents=True, exist_ok=True)
    arrays = {}
    if workload == "stream":
        ds = DriftStream(base=stream_model(size["m"]), n_steps=size["steps"],
                         seed=seed, flip_period=size["flip_period"])
        regime_acc = np.array([j.accuracies() for j in ds.joints])
        arrays["rows"] = ds.rows
        arrays["truth_post"] = np.array(
            [ds.true_posterior_pos(t)[0] for t in range(size["steps"])])
        arrays["truth_acc"] = regime_acc[ds.regime]
        meta = {"m": size["m"], "edges": [[0, 1]], "balance": STREAM_BALANCE,
                "steps": size["steps"], "window": size["window"],
                "warmup": size["warmup"]}
    else:
        votes, truth_acc, post, meta = _batch_inputs(workload, seed, size)
        arrays["votes"] = votes
        arrays["truth_acc"] = truth_acc
        arrays["truth_post"] = post
        if workload == "csv":
            from votefuse.graph import DependencyGraph

            m = meta["m"]
            _write_csv(out / "votes.csv", votes)
            fileio.write_graph_spec(str(out / "graph.spec"), DependencyGraph(
                n_tasks=1, n_sources=m, assignment=(0,) * m,
                source_edges=tuple(meta["edges"])))
            _write_csv(out / "warm.csv", votes[:WARM_ROWS, :WARM_COLS])
            fileio.write_graph_spec(str(out / "warm.spec"), star_graph(WARM_COLS))
    for name, arr in arrays.items():
        np.save(out / f"{name}.npy", arr)

    files = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    digest = hashlib.sha256(
        "".join(f"{k}:{v}\n" for k, v in files.items()).encode()).hexdigest()
    manifest = {"workload": workload, "seed": seed, "size": size_name,
                "files": files, "digest": digest, **meta}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


def load_manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text())


def main(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser(description="write one workload's seeded inputs")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    # import every module the measured process will load, so their bytecode
    # caches exist before set-up is timed
    import votefuse.cli, votefuse.inference, votefuse.online, votefuse.recovery  # noqa: F401
    generate(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
