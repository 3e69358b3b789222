"""Text formats: vote CSVs, graph specs, priors, model specs, parameter files.

All indices in text files are 1-based; the in-memory API is 0-based.
Parameter files round-trip bit-exactly (floats serialize via repr).
"""

from __future__ import annotations

import itertools
import json
import warnings
from typing import Dict, Optional, TextIO, Tuple

import numpy as np

from .errors import AssignmentMissing, DataFormatError
from .graph import (
    BLOCK_ROWS,
    ClassPrior,
    DependencyGraph,
    LabelModelParameters,
    VarSet,
    build_junction_tree,
    clique_table_shape,
    validate_graph,
)
from .oracle import CanonicalParameters


# ---------------------------------------------------------------------------
# vote matrices
# ---------------------------------------------------------------------------

def _looks_like_header(line: str) -> bool:
    for tok in line.replace(",", " ").split():
        try:
            int(tok)
        except ValueError:
            return True
    return False


def _data_start(fh: TextIO) -> Optional[int]:
    """Physical lines before the first data row: the leading blank lines,
    plus the header when the first non-blank line is one. None when no
    data row follows."""
    header = False
    for count, raw in enumerate(fh):
        line = raw.strip()
        if not line:
            continue
        if header or not _looks_like_header(line):
            return count
        header = True
    return None


def read_label_csv(path: str) -> np.ndarray:
    """Comma-separated votes in {-1, 0, 1}, one row per line, as int8.

    The first non-blank line is a header, and skipped, when one of its
    comma- or space-separated tokens is not an integer. Blank and
    whitespace-only lines are ignored; entries may carry surrounding
    whitespace, a sign and leading zeros. A bad entry, a row of the wrong
    length or a file without data rows raises DataFormatError; the message
    names the row (counting data rows only) and, for an entry, the column.
    """
    # np.loadtxt parses a well-formed file in one C-level pass and is strict
    # where the loop is lenient (whitespace-only lines, underscores, Unicode
    # digits), so anything it rejects, or an entry out of range, goes to the
    # loop, which gives the result or the row/column error. loadtxt reads
    # the open handle, not the path, so it decodes lines exactly as the loop
    # does; given a path, numpy would also decompress a name ending in .gz.
    # Some numpy releases parse an entry such as "1.0", "nan" or "256" via
    # float and cast it, with only a DeprecationWarning; raising that
    # warning sends such a file to the loop whatever the numpy version.
    with open(path) as fh:
        skip = _data_start(fh)
        if skip is not None:
            fh.seek(0)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    votes = np.loadtxt(fh, delimiter=",", dtype=np.int8,
                                       comments=None, ndmin=2,
                                       skiprows=skip)
            except (ValueError, DeprecationWarning):
                pass
            else:
                if not ((votes < -1) | (votes > 1)).any():
                    return votes
    return _read_label_csv_loop(path)


def _read_label_csv_loop(path: str) -> np.ndarray:
    """Per-token reference parser behind ``read_label_csv``."""
    rows = []
    width = None
    with open(path) as fh:
        skip = _data_start(fh)
        if skip is None:
            raise DataFormatError(f"{path}: no data rows")
        fh.seek(0)
        lines = [ln.strip() for ln in itertools.islice(fh, skip, None)]
    lines = [ln for ln in lines if ln]
    for rn, line in enumerate(lines, start=1):
        toks = [t for t in line.split(",")]
        row = []
        for cn, tok in enumerate(toks, start=1):
            try:
                v = int(tok.strip())
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {rn}, column {cn}: not an integer: {tok!r}")
            if v not in (-1, 0, 1):
                raise DataFormatError(
                    f"{path}: row {rn}, column {cn}: "
                    f"entry {v} outside [-1, 0, 1]")
            row.append(v)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(
                f"{path}: row {rn} has {len(row)} entries, expected {width}")
        rows.append(row)
    return np.asarray(rows, dtype=np.int8)


# each vote as its text after a comma, padded with NUL: ",-1", ",0", ",1"
_VOTE_TEXT = np.frombuffer(b",-1,0\x00,1\x00", dtype=np.uint8).reshape(3, 3)


def write_label_csv(path: str, votes: np.ndarray) -> None:
    """One line of comma-separated votes (-1, 0 or +1) per row. Each row
    block is written as one string: every vote is looked up as its padded
    text and the padding is dropped."""
    votes = np.asarray(votes)
    with open(path, "w") as fh:
        for lo in range(0, votes.shape[0], BLOCK_ROWS):
            block = votes[lo:lo + BLOCK_ROWS] + 1
            if np.any((block < 0) | (block > 2)):
                raise ValueError("votes must be -1, 0 or +1")
            text = np.take(_VOTE_TEXT, block, axis=0).reshape(len(block), -1)
            text[:, :1] = 0  # no comma before a row's first vote
            text = np.column_stack([text, np.full(len(block), ord("\n"), dtype=np.uint8)])
            fh.write(text[text != 0].tobytes().decode("ascii"))


# ---------------------------------------------------------------------------
# graph spec
# ---------------------------------------------------------------------------

def _spec_lines(path: str):
    with open(path) as fh:
        for ln_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield ln_no, line.split()


def parse_graph_spec(path: str) -> DependencyGraph:
    """Whitespace-delimited, 1-indexed: ``tasks D``, ``sources m``,
    ``assign i d``, ``tedge d e``, ``sedge i j``."""
    n_tasks = n_sources = None
    assign: Dict[int, int] = {}
    tedges, sedges = [], []
    for ln_no, toks in _spec_lines(path):
        kw = toks[0]
        try:
            if kw == "tasks":
                n_tasks = int(toks[1])
            elif kw == "sources":
                n_sources = int(toks[1])
            elif kw == "assign":
                assign[int(toks[1]) - 1] = int(toks[2]) - 1
            elif kw == "tedge":
                tedges.append((int(toks[1]) - 1, int(toks[2]) - 1))
            elif kw == "sedge":
                sedges.append((int(toks[1]) - 1, int(toks[2]) - 1))
            elif kw == "theta":
                continue  # model-spec extension, parsed separately
            else:
                raise DataFormatError(f"{path}:{ln_no}: unknown keyword {kw!r}")
        except (IndexError, ValueError) as exc:
            raise DataFormatError(f"{path}:{ln_no}: bad line {toks}: {exc}") from exc
    if n_tasks is None or n_sources is None:
        raise DataFormatError(f"{path}: need 'tasks' and 'sources' lines")
    missing = [i + 1 for i in range(n_sources) if i not in assign]
    if missing:
        raise AssignmentMissing(f"{path}: sources {missing} lack 'assign' lines")
    assignment = tuple(assign[i] for i in range(n_sources))
    return DependencyGraph(n_tasks=n_tasks, n_sources=n_sources,
                           assignment=assignment, task_edges=tuple(tedges),
                           source_edges=tuple(sedges))


def write_graph_spec(path: str, g: DependencyGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"tasks {g.n_tasks}\n")
        fh.write(f"sources {g.n_sources}\n")
        for i, d in enumerate(g.assignment):
            fh.write(f"assign {i + 1} {d + 1}\n")
        for a, b in g.task_edges:
            fh.write(f"tedge {a + 1} {b + 1}\n")
        for a, b in g.source_edges:
            fh.write(f"sedge {a + 1} {b + 1}\n")


# ---------------------------------------------------------------------------
# model spec (graph + canonical weights), used by simulate/sweep
# ---------------------------------------------------------------------------

def parse_model_spec(path: str) -> CanonicalParameters:
    """Graph spec plus ``theta`` lines:

    ``theta task d v``, ``theta tedge d e v``, ``theta acc i v``,
    ``theta abstain i v``, ``theta sedge i j v``. Omitted weights default to
    zero; a model with no nonzero abstain weights still abstains unless
    ``theta noabstain`` is present.
    """
    g = parse_graph_spec(path)
    t_task = np.zeros(g.n_tasks)
    t_acc = np.zeros(g.n_sources)
    t_abst = np.zeros(g.n_sources)
    t_tedge: Dict[Tuple[int, int], float] = {}
    t_dep: Dict[Tuple[int, int], float] = {}
    abstaining = True
    for ln_no, toks in _spec_lines(path):
        if toks[0] != "theta":
            continue
        try:
            kind = toks[1]
            if kind == "noabstain":
                abstaining = False
            elif kind == "task":
                t_task[int(toks[2]) - 1] = float(toks[3])
            elif kind == "acc":
                t_acc[int(toks[2]) - 1] = float(toks[3])
            elif kind == "abstain":
                t_abst[int(toks[2]) - 1] = float(toks[3])
            elif kind == "tedge":
                t_tedge[(int(toks[2]) - 1, int(toks[3]) - 1)] = float(toks[4])
            elif kind == "sedge":
                t_dep[(int(toks[2]) - 1, int(toks[3]) - 1)] = float(toks[4])
            else:
                raise DataFormatError(f"{path}:{ln_no}: unknown theta kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise DataFormatError(f"{path}:{ln_no}: bad theta line: {exc}") from exc
    if not abstaining:
        t_abst[:] = 0.0
    return CanonicalParameters(
        graph=g, theta_task=tuple(t_task), theta_acc=tuple(t_acc),
        theta_abstain=tuple(t_abst), theta_task_edge=t_tedge, theta_dep=t_dep,
        abstaining=abstaining,
    )


# ---------------------------------------------------------------------------
# prior
# ---------------------------------------------------------------------------

def parse_prior_file(path: str, n_tasks: int) -> ClassPrior:
    """Either a single class-balance scalar (one task) or a joint table with
    one line per configuration: D signs in {-1,+1} then the probability."""
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise DataFormatError(f"{path}: empty prior file")
    if len(lines) == 1 and len(lines[0].split()) == 1:
        if n_tasks != 1:
            raise DataFormatError(
                f"{path}: scalar balance only valid for one task, have {n_tasks}")
        try:
            p = float(lines[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad balance: {exc}") from exc
        return ClassPrior.from_balance(p)
    table = np.zeros((2,) * n_tasks)
    for ln_no, line in enumerate(lines, start=1):
        toks = line.split()
        if len(toks) != n_tasks + 1:
            raise DataFormatError(
                f"{path}: line {ln_no}: need {n_tasks} signs and a probability")
        try:
            signs = [int(t) for t in toks[:-1]]
            prob = float(toks[-1])
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {ln_no}: {exc}") from exc
        if any(s not in (-1, 1) for s in signs):
            raise DataFormatError(f"{path}: line {ln_no}: signs must be +/-1")
        idx = tuple(0 if s == 1 else 1 for s in signs)
        table[idx] += prob
    try:
        return ClassPrior(n_tasks=n_tasks, joint=table)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# parameter files
# ---------------------------------------------------------------------------

def _varset_to_json(vs: VarSet) -> dict:
    return {"tasks": [d + 1 for d in vs.tasks],
            "sources": [i + 1 for i in vs.sources]}


def _varset_from_json(d: dict) -> VarSet:
    return VarSet(tuple(t - 1 for t in d["tasks"]),
                  tuple(s - 1 for s in d["sources"]))


def save_parameters(path: str, mu: LabelModelParameters) -> None:
    """One record per clique/separator: members plus the row-major flattened
    table (axes: tasks ascending, then sources ascending)."""
    g = mu.graph
    doc = {
        "format": "votefuse-parameters-v1",
        "graph": {
            "tasks": g.n_tasks,
            "sources": g.n_sources,
            "assignment": [d + 1 for d in g.assignment],
            "task_edges": [[a + 1, b + 1] for a, b in g.task_edges],
            "source_edges": [[a + 1, b + 1] for a, b in g.source_edges],
        },
        "cliques": [
            {**_varset_to_json(vs), "table": [float(x) for x in tbl.reshape(-1)]}
            for vs, tbl in sorted(mu.cliques.items(),
                                  key=lambda kv: (kv[0].tasks, kv[0].sources))
        ],
        "separators": [
            {**_varset_to_json(vs), "degree": deg,
             "table": [float(x) for x in mu.separators[vs].reshape(-1)]}
            for vs, deg in mu.jtree.separators
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_parameters(path: str) -> LabelModelParameters:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if doc.get("format") != "votefuse-parameters-v1":
        raise DataFormatError(f"{path}: not a votefuse parameter file")
    gd = doc["graph"]
    g = DependencyGraph(
        n_tasks=gd["tasks"], n_sources=gd["sources"],
        assignment=tuple(d - 1 for d in gd["assignment"]),
        task_edges=tuple((a - 1, b - 1) for a, b in gd["task_edges"]),
        source_edges=tuple((a - 1, b - 1) for a, b in gd["source_edges"]),
    )
    jtree = build_junction_tree(validate_graph(g))
    cliques = {}
    for rec in doc["cliques"]:
        vs = _varset_from_json(rec)
        cliques[vs] = np.asarray(rec["table"], dtype=np.float64).reshape(
            clique_table_shape(vs))
    separators = {}
    for rec in doc["separators"]:
        vs = _varset_from_json(rec)
        separators[vs] = np.asarray(rec["table"], dtype=np.float64).reshape(
            clique_table_shape(vs))
    return LabelModelParameters(graph=g, jtree=jtree, cliques=cliques,
                                separators=separators)


# ---------------------------------------------------------------------------
# posterior CSV
# ---------------------------------------------------------------------------

def write_posterior_csv(fh: TextIO, probs: np.ndarray) -> None:
    """Header ``row,task,p_pos``; probabilities with 9 significant digits;
    row and task indices are 1-based."""
    fh.write("row,task,p_pos\n")
    n, D = probs.shape
    for lo in range(0, n, BLOCK_ROWS):
        block = probs[lo:lo + BLOCK_ROWS]
        # one (row, task, p) triple per line; "%" formats a float exactly as
        # an f-string with the same spec does
        cells = np.empty(block.shape + (3,), dtype=object)
        cells[..., 0] = np.arange(lo + 1, lo + len(block) + 1)[:, None]
        cells[..., 1] = np.arange(1, D + 1)
        cells[..., 2] = block
        fh.write("%d,%d,%.9g\n" * block.size % tuple(cells.ravel()))


def save_posterior_csv(path: str, probs: np.ndarray) -> None:
    with open(path, "w") as fh:
        write_posterior_csv(fh, probs)
