"""Text formats: vote CSVs, graph specs, priors, model specs, parameter files.

All indices in text files are 1-based; the in-memory API is 0-based.
Parameter files round-trip bit-exactly (floats serialize via repr).

Vote CSVs are read by a numpy byte tokenizer: each line-aligned chunk is
classified byte by byte with vector compares, normalised to the canonical
grammar ``-?[01](,-?[01])*\\n`` when it is not in it already, and the votes
are compacted from the digit positions. A file it does not accept is read
by the per-token loop ``_read_label_csv_loop``, the reference for every
result and the only source of row/column error messages.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from typing import BinaryIO, Dict, Iterator, Optional, TextIO, Tuple

import numpy as np

from .errors import AssignmentMissing, DataFormatError, GraphError
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

    The header and leading blank lines are found in text mode; the rest is
    read in binary by a numpy byte tokenizer (``_read_votes``). Whatever it
    does not accept, an error included, is read again by the per-token
    loop, which is the reference for results and the only source of error
    messages.
    """
    with open(path) as fh:
        skip = _data_start(fh)
    if skip is not None:
        with open(path, "rb") as fh:
            votes = _read_votes(fh, skip)
        if votes is not None:
            return votes
    return _read_label_csv_loop(path)


# Bytes per read of the tokenizer; every chunk ends at a line break. At
# 64 KiB a chunk's temporaries stay near the cache and take ~2 MB at most.
_CHUNK_BYTES = 1 << 16
_EOL = re.compile(rb"\r\n?|\n")
_TAB, _LF, _CR, _SPACE, _PLUS, _COMMA, _MINUS, _ONE = b"\t\n\r +,-1"


def _skip_lines(fh: BinaryIO, count: int) -> bytes:
    """Read past ``count`` physical lines of ``fh``, split as text mode
    splits them (at \\n, \\r\\n or a lone \\r); return the bytes read
    beyond them."""
    buf, pos = b"", 0
    while count:
        m = _EOL.search(buf, pos)
        # a \r at the end of what was read may be the first half of \r\n
        if m is None or (m.end() == len(buf) and buf.endswith(b"\r")):
            more = fh.read(_CHUNK_BYTES)
            if more:
                buf, pos = buf[pos:] + more, 0
                continue
            if m is None:
                return b""
        pos = m.end()
        count -= 1
    return buf[pos:]


def _line_chunks(fh: BinaryIO, skip: int) -> Iterator[np.ndarray]:
    """The bytes of ``fh`` after ``skip`` physical lines, as uint8 arrays of
    whole lines; each ends with a line break (a missing last one is added)."""
    buf = _skip_lines(fh, skip)
    while True:
        more = fh.read(_CHUNK_BYTES)
        if not more:
            break
        buf += more
        cut = max(buf.rfind(b"\n"), buf.rfind(b"\r")) + 1
        if cut:
            yield np.frombuffer(buf, np.uint8, cut)
            buf = buf[cut:]
    if buf:
        if not buf.endswith((b"\n", b"\r")):
            buf += b"\n"
        yield np.frombuffer(buf, np.uint8)


def _read_votes(fh: BinaryIO, skip: int) -> Optional[np.ndarray]:
    """The byte tokenizer: the votes after ``skip`` physical lines of the
    binary ``fh``, or None when a chunk is outside the grammar it takes."""
    # every vote is a digit and the separator after it, so half the file
    # bounds the votes; one buffer, shrunk at the end, leaves no heap holes
    votes = np.empty((os.fstat(fh.fileno()).st_size + 1) // 2, np.int8)
    n, width = 0, None
    for chunk in _line_chunks(fh, skip):
        parsed = _parse_chunk(chunk, width)
        if parsed is None:
            return None
        signed, cols, width = parsed
        if n + len(cols) > len(votes):  # the file grew while read
            return None
        signed.take(cols, out=votes[n:n + len(cols)])
        n += len(cols)
    if width is None:
        return None
    votes.resize((n // width, width), refcheck=False)
    return votes


def _parse_chunk(c: np.ndarray, width: Optional[int], normalised: bool = False
                 ) -> Optional[Tuple[np.ndarray, np.ndarray, Optional[int]]]:
    """A chunk of whole lines in the canonical grammar
    ``-?[01](,-?[01])*\\n``: its signed byte values, the positions of its
    votes among them and the row width. None when a row is not ``width``
    entries long. Any other chunk is normalised first, once."""
    digit = (c | 1) == _ONE  # "0" or "1"
    lf, minus = c == _LF, c == _MINUS
    sep = lf | (c == _COMMA)
    n_digit, n_sep, n_minus = map(np.count_nonzero, (digit, sep, minus))
    # every byte is a digit, a separator or a minus; a separator follows
    # every digit and there are as many of each, so a digit precedes every
    # separator; a digit follows every minus
    canonical = (
        n_digit + n_sep + n_minus == len(c)
        and n_digit == n_sep
        and np.count_nonzero(digit[:-1] & sep[1:]) == n_digit
        and np.count_nonzero(minus[:-1] & digit[1:]) == n_minus)
    if not canonical:
        if normalised:
            return None
        c = _normalise(c)
        return None if c is None else _parse_chunk(c, width, True)
    cols = np.flatnonzero(digit)
    ends = np.flatnonzero(lf)
    if len(ends):
        done = np.searchsorted(cols, ends)  # votes before each line break
        if width is None:
            width = int(done[0])
        if not np.array_equal(done, np.arange(width, len(cols) + 1, width)):
            return None
    one = c == _ONE
    signed = one.view(np.int8)
    negative = (minus[:-1] & one[1:]).view(np.int8)
    negative <<= 1
    signed[1:] -= negative
    return signed, cols, width


def _normalise(c: np.ndarray) -> Optional[np.ndarray]:
    """A chunk of whole lines in the canonical grammar: without what int()
    ignores in a valid entry (spaces and tabs around it, a plus sign,
    leading zeros) and without blank lines; every \\r is a line break, as
    in text mode. None when such a byte sits anywhere else, or the chunk
    holds a byte no valid entry has."""
    u = np.insert(c, 0, _LF)  # a break before the first line
    u[u == _CR] = _LF  # \r\n then makes an empty line, dropped below
    blank = (u == _SPACE) | (u == _TAB)
    spaced = np.zeros(len(u) - 1, bool)  # spaces between u[i] and u[i + 1]
    if blank.any():
        kept = np.flatnonzero(~blank)
        u = u.take(kept)
        spaced = np.diff(kept) > 1
    sep = (u == _LF) | (u == _COMMA)
    sign = (u == _PLUS) | (u == _MINUS)
    digit = (u | 1) == _ONE
    if np.count_nonzero(sep | sign | digit) != len(u):
        return None
    inner = digit[:-1] & digit[1:]
    if (np.any(spaced & ~sep[:-1] & ~sep[1:])  # a space inside an entry
            or np.any(sign[1:] & ~sep[:-1])  # a sign not at an entry's start
            or np.any(sign[:-1] & ~digit[1:])  # a sign without a digit
            or np.any(inner & (u[:-1] == _ONE))):  # two digits, not "0" first
        return None
    lf = u == _LF
    drop = u == _PLUS
    drop[:-1] |= inner  # a leading zero
    drop[1:] |= lf[:-1] & lf[1:]  # an empty line
    drop[0] = True
    return u[~drop]  # denser than the digits, so a mask beats flatnonzero


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


def _graph_from(path: str, **spec) -> DependencyGraph:
    """``DependencyGraph(**spec)``, as parsed, once ``validate_graph``
    accepts its structure; an error either raises names ``path``."""
    try:
        g = DependencyGraph(**spec)
        validate_graph(g)
    except (GraphError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return g


def parse_graph_spec(path: str) -> DependencyGraph:
    """Whitespace-delimited, 1-indexed: ``tasks D``, ``sources m``,
    ``assign i d``, ``tedge d e``, ``sedge i j``. A later ``assign`` of a
    source replaces an earlier one; one of a source outside 1..m is an
    error naming its line."""
    n_tasks = n_sources = None
    assign: Dict[int, Tuple[int, int]] = {}  # source -> (task, line)
    tedges, sedges = [], []
    for ln_no, toks in _spec_lines(path):
        kw = toks[0]
        try:
            if kw == "tasks":
                n_tasks = int(toks[1])
            elif kw == "sources":
                n_sources = int(toks[1])
            elif kw == "assign":
                assign[int(toks[1]) - 1] = (int(toks[2]) - 1, ln_no)
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
    stray = [ln for i, (_, ln) in assign.items() if not 0 <= i < n_sources]
    if stray:
        raise DataFormatError(
            f"{path}:{min(stray)}: assign names a source outside 1 to {n_sources}")
    missing = [i + 1 for i in range(n_sources) if i not in assign]
    if missing:
        raise AssignmentMissing(f"{path}: sources {missing} lack 'assign' lines")
    assignment = tuple(assign[i][0] for i in range(n_sources))
    return _graph_from(path, n_tasks=n_tasks, n_sources=n_sources, assignment=assignment,
                       task_edges=tuple(tedges), source_edges=tuple(sedges))


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
    one line per configuration: D signs in {-1,+1} then the probability. A
    configuration listed twice is an error naming the second line."""
    with open(path) as fh:
        lines = [(ln_no, ln.split("#", 1)[0].split()) for ln_no, ln in enumerate(fh, start=1)]
    lines = [(ln_no, toks) for ln_no, toks in lines if toks]
    if not lines:
        raise DataFormatError(f"{path}: empty prior file")
    if len(lines) == 1 and len(lines[0][1]) == 1:
        if n_tasks != 1:
            raise DataFormatError(
                f"{path}: scalar balance only valid for one task, have {n_tasks}")
        try:
            p = float(lines[0][1][0])
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad balance: {exc}") from exc
        return ClassPrior.from_balance(p)
    table = np.zeros((2,) * n_tasks)
    seen = set()
    for ln_no, toks in lines:
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
        if idx in seen:
            raise DataFormatError(
                f"{path}: line {ln_no}: configuration {' '.join(toks[:-1])} listed twice")
        seen.add(idx)
        table[idx] = prob
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


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _json_list(value, item=lambda x: x) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [item(x) for x in value]


def _json_int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_number(value) -> float:
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _json_pair(value) -> Tuple[int, int]:
    pair = _json_list(value, _json_int)
    if len(pair) != 2:
        raise ValueError(f"expected two indices, got {value!r}")
    return pair[0] - 1, pair[1] - 1


def load_parameters(path: str) -> LabelModelParameters:
    """Read a file written by ``save_parameters``. Invalid JSON, a foreign
    document, a missing or mistyped field, a missing, extra or repeated
    table, or a negative or non-finite entry raises DataFormatError; the
    message names the file and the field or table."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "votefuse-parameters-v1":
        raise DataFormatError(f"{path}: not a votefuse parameter file")

    def checked(name: str, parse, value):
        try:
            return parse(value)
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: field {name!r}: {exc}") from exc

    def field(obj: dict, where: str, key: str, parse):
        name = f"{where}.{key}" if where else key
        if key not in obj:
            raise DataFormatError(f"{path}: missing field {name!r}")
        return checked(name, parse, obj[key])

    def indices(value) -> Tuple[int, ...]:
        return tuple(i - 1 for i in _json_list(value, _json_int))

    def pairs(value) -> Tuple[Tuple[int, int], ...]:
        return tuple(_json_list(value, _json_pair))

    def table(value, vs: VarSet) -> np.ndarray:
        tbl = np.asarray(_json_list(value, _json_number), dtype=np.float64)
        if not np.all((tbl >= 0) & (tbl < np.inf)):  # NaN fails both
            raise ValueError(f"table for {vs.label()} has a negative or non-finite entry")
        return tbl.reshape(clique_table_shape(vs))

    def tables(key: str) -> Dict[VarSet, np.ndarray]:
        out = {}
        for k, rec in enumerate(field(doc, "", key, _json_list)):
            where = f"{key}[{k}]"
            rec = checked(where, _json_object, rec)
            vs = VarSet(field(rec, where, "tasks", indices),
                        field(rec, where, "sources", indices))
            if vs in out:
                raise DataFormatError(f"{path}: {where}: a second table for {vs.label()}")
            out[vs] = field(rec, where, "table", lambda v: table(v, vs))
        return out

    gd = field(doc, "", "graph", _json_object)
    g = _graph_from(
        path,
        n_tasks=field(gd, "graph", "tasks", _json_int),
        n_sources=field(gd, "graph", "sources", _json_int),
        assignment=field(gd, "graph", "assignment", indices),
        task_edges=field(gd, "graph", "task_edges", pairs),
        source_edges=field(gd, "graph", "source_edges", pairs),
    )
    jtree = build_junction_tree(validate_graph(g))
    try:
        return LabelModelParameters.from_tables(g, jtree, tables("cliques"), tables("separators"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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
