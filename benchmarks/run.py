"""votefuse benchmark: one workload run, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload tall --seed 1 --seconds 30 --trace 0

The run has three stages:

1. ``workloads.py`` writes the seeded inputs (and the ground truth used to
   score them), so input generation sets neither peak RSS nor set-up time;
2. ``worker.py`` measures the workload for ``--seconds`` and checks outputs;
3. ``worker.py --setup-only``, in fresh interpreters, adds set-up samples:
   one before stage 2, one in each of its pauses and one after it.

No two processes of a run compute at once: while a set-up sample is taken,
the measuring process waits for it on a pipe.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The full record (seed, input digest,
environment, quality scores and, when traced, every span) is written to
``.benchwork/results/``. A failed output check is reported on standard
error and as ``"correct": false``; a run that produces no result (no
votefuse sources, a crashed or overdue stage) prints none and exits 2.
"""

import os

# pinned before any process of the run imports numpy
PINNED = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"

# the measuring process pauses CHUNKS - 1 times at even intervals; set-up is
# sampled in a fresh interpreter before it, in each pause and after it
CHUNKS = 6
# every process of a run must end within this many seconds of its start
DEADLINE_S = 170.0


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _python(script, args, env, deadline, stdout=None):
    """Run one benchmark script to completion (killed at the deadline)."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run deadline passed")
    subprocess.run([sys.executable, str(HERE / script), *map(str, args)], env=env,
                   stdout=stdout, check=True, timeout=left)


def _measure(args, env, deadline, on_pause):
    """Run the measuring process; call ``on_pause`` whenever it pauses."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise TimeoutError("run deadline passed")
            if not proc.stdout.readline():
                break
            on_pause()
            proc.stdin.write("go\n")
            proc.stdin.flush()
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="run one votefuse benchmark workload")
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the harness (self-test)")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "votefuse" / "__init__.py").is_file():
        print(f"no votefuse sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        tag += f"-{args.size}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    inputs, workdir = run_dir / "inputs", run_dir / "work"
    try:
        _python("workloads.py", ["--workload", args.workload, "--seed", args.seed,
                                 "--size", args.size, "--out", inputs], env, deadline)
        manifest = json.loads((inputs / "manifest.json").read_text())
        common = ["--workload", args.workload, "--inputs", inputs, "--work", workdir]
        setups = []

        def probe_setup():
            out = run_dir / f"setup{len(setups)}.json"
            _python("worker.py", [*common, "--setup-only", "--out", out], env, deadline,
                    stdout=subprocess.DEVNULL)
            setups.append(json.loads(out.read_text())["setup_s"])

        probe_setup()
        out = run_dir / "result.json"
        _measure([*common, "--seconds", args.seconds, "--trace", args.trace,
                  "--chunks", CHUNKS, "--out", out], env, deadline,
                 probe_setup)
        result = json.loads(out.read_text())
        probe_setup()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setups.append(result["setup_s"])
    problems = list(result["problems"])
    for name, value in result["quality"].items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
    if args.trace:
        measured = dict(result["per_layer"])
        measured.update({f"quality.{k}": v for k, v in result["quality"].items()})
        wanted = spec["per_layer"]
    else:
        measured = dict(result["end_to_end"], setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in measured:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")
    correct = not problems and result["attempted"] > 0

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "input_digest": manifest["digest"],
        "input": {k: manifest[k] for k in ("n", "m", "steps", "edges") if k in manifest},
        "git_sha": _git_sha(), "environment": result["environment"],
        "setup_s_samples": setups, "latency_ms": result["latency_ms"],
        "rows_per_s": result["rows_per_s"], "warmup_error": result["warmup_error"],
        "repetitions": result["repetitions"], "quality": result["quality"],
        "problems": problems, "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (results / f"SPANS_{tag}.json").write_text(json.dumps(result["spans"]))
    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
