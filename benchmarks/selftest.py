"""Self-test of the benchmark harness on tiny inputs; takes well under a minute.

    python3 benchmarks/selftest.py

Checks, for every workload, untraced and traced:
- the result line has exactly the keys correct, attempted, failed and
  metrics, and every metric named in BENCHMARK.json is printed, finite,
  with its unit;
- the recorded spans nest, and per repetition the self times of all spans
  add up to the duration of the root spans;
and, once:
- one seed gives byte-identical inputs, another seed different ones;
- in a directory holding only BENCHMARK.json and the benchmark, a run fails
  without printing a result.

Whether the tiny runs' outputs pass the program checks is printed, not
asserted: the tiny inputs only exercise the harness.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Span, check_spans  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

WORK = ROOT / ".benchwork"
SEED = 7


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _spans(path):
    spans = []
    for name, start, end, parent, rep, failed, count, peak in json.loads(path.read_text()):
        s = Span(name, parent, rep)
        s.start, s.end, s.failed, s.count, s.peak = start, end, failed, count, peak
        spans.append(s)
    return spans


def check_run(spec, workload, trace):
    out = _run(ROOT, workload, trace)
    if out.returncode != 0 or not out.stdout.strip():
        return [f"exit {out.returncode}: {out.stderr.strip()[-500:]}"], None
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {v.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']} value {v.get('value')!r}")
    if trace:
        spans = _spans(WORK / "results" / f"SPANS_{workload}-seed{SEED}-trace1-tiny.json")
        if not spans:
            problems.append("no spans recorded")
        problems += check_spans(spans)
    return problems, result["correct"]


def check_inputs():
    problems = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS:
            a = generate(workload, SEED, "tiny", Path(tmp, workload, "a"))
            b = generate(workload, SEED, "tiny", Path(tmp, workload, "b"))
            c = generate(workload, SEED + 1, "tiny", Path(tmp, workload, "c"))
            same = all((Path(tmp, workload, "a", f).read_bytes()
                        == Path(tmp, workload, "b", f).read_bytes()) for f in a["files"])
            if not same or a["digest"] != b["digest"]:
                problems.append(f"{workload}: one seed gave different inputs")
            if a["digest"] == c["digest"]:
                problems.append(f"{workload}: two seeds gave the same inputs")
    return problems


def check_bare():
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(tmp, "tall", 0)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems, correct = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload:6s} trace={trace}: harness {status}; "
                  f"program checks {'pass' if correct else 'fail'}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    for name, check in (("seeded inputs", check_inputs), ("bare directory", check_bare)):
        problems = check()
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"    {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
