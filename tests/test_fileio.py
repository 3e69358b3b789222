import io
import json
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votefuse import fileio
from votefuse.errors import AssignmentMissing, DataFormatError, UnsupportedCliqueSize
from votefuse.graph import DependencyGraph
from votefuse.oracle import enumerate_joint, random_model, sample
from votefuse.recovery import recover_parameters
from votefuse.config import RunConfig

from conftest import star, star_with_edges


_VALID = ["1", "0", "-1", "+1", "01", "-0", "-01"]
# int() reads "0_0"; "- 1", "0 1", "1 -1" and "+ 1" hold a space the
# tokenizer may drop only around an entry; NUL and "é" are outside its bytes
_BAD = ["2", "-2", "127", "300", "-129", "256", "1.0", "0.5", "nan", "",
        "x", "0_0", "- 1", "0 1", "1 -1", "+ 1", "--1", "\x00", "é"]
_PADS = ["", " ", "\t", " \t"]
_BLANKS = ["", " ", "\t "]
_HEADERS = ["s1,s2", "votes", " id , s1", "a,1"]


@st.composite
def _vote_csvs(draw):
    """A small vote CSV text; its rows when every entry is valid and the
    rows agree in length, else None; and whether the byte tokenizer must
    take all of it."""
    blanks = st.lists(st.sampled_from(_BLANKS), max_size=2)
    lines = draw(blanks)
    leading, header = bool(lines), draw(st.booleans())
    if header:
        lines += [draw(st.sampled_from(_HEADERS))] + draw(blanks)
    corrupt, ragged = draw(st.booleans()), draw(st.booleans())
    tokens = st.sampled_from(_VALID + _BAD if corrupt else _VALID)
    pads = st.sampled_from(_PADS)
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 4))
    rows, clean = [], n_rows > 0
    for _ in range(n_rows):
        w = max(1, width + draw(st.sampled_from([-1, 0, 1]))) if ragged else width
        toks = [draw(tokens) for _ in range(w)]
        row = ",".join(draw(pads) + t + draw(pads) for t in toks)
        if ragged and draw(st.booleans()):
            row += ","  # an empty last field
            w = -1
        gap = draw(st.lists(st.sampled_from(_BLANKS), max_size=1))
        lines += [row] + gap
        valid = w == width and all(t in _VALID for t in toks)
        if rows is not None:
            rows = rows + [[int(t) for t in toks]] if valid else None
        clean = clean and valid
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    if draw(st.booleans()):
        # int() refuses a UTF-8 BOM, so the line it starts is a header
        text = "\ufeff" + text
        if leading and header:  # the drawn header becomes a data row
            rows, clean = None, False
        elif not leading and not header:  # the first row becomes the header
            rows = None if rows is None else rows[1:]
            clean = clean and n_rows > 1
    return text, rows, clean


def _outcome(read, path):
    try:
        votes = read(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return "votes", votes.dtype, votes.tolist()


def _reference_write_label_csv(path, votes):
    """The former writer: one joined generator and one write per row."""
    with open(path, "w") as fh:
        for row in np.asarray(votes):
            fh.write(",".join(str(int(v)) for v in row) + "\n")


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 9), m=st.integers(0, 4), block=st.integers(1, 4),
       dtype=st.sampled_from([np.int8, np.int64]), seed=st.integers(0, 2 ** 16))
def test_label_writer_matches_per_row_reference(n, m, block, dtype, seed):
    votes = np.random.default_rng(seed).integers(-1, 2, size=(n, m)).astype(dtype)
    with tempfile.TemporaryDirectory() as tmp:
        want, got = os.path.join(tmp, "want.csv"), os.path.join(tmp, "got.csv")
        _reference_write_label_csv(want, votes)
        with mock.patch.object(fileio, "BLOCK_ROWS", block):
            fileio.write_label_csv(got, votes)
        with open(want, "rb") as fw, open(got, "rb") as fg:
            assert fg.read() == fw.read()


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        votes = np.array([[1, 0, -1], [0, 0, 1]], dtype=np.int8)
        path = tmp_path / "votes.csv"
        fileio.write_label_csv(path, votes)
        np.testing.assert_array_equal(fileio.read_label_csv(path), votes)

    @pytest.mark.parametrize("bad", [2, -2])
    def test_writer_rejects_non_votes(self, tmp_path, bad):
        with pytest.raises(ValueError, match="-1, 0 or \\+1"):
            fileio.write_label_csv(tmp_path / "votes.csv", np.array([[1, bad]]))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("s1,s2\n1,0\n-1,1\n")
        got = fileio.read_label_csv(path)
        np.testing.assert_array_equal(got, [[1, 0], [-1, 1]])

    def test_bad_entry_names_row_and_column(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("1,0\n0,2\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            fileio.read_label_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(DataFormatError, match="row 2"):
            fileio.read_label_csv(path)

    @pytest.mark.parametrize("text", ["", "\n \n", "s1,s2\n", "\ns1,s2\n \n"])
    def test_no_data_rows_warns_nothing(self, tmp_path, text):
        path = tmp_path / "votes.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no data rows"):
                fileio.read_label_csv(path)

    def test_float_parsed_entries_go_to_the_loop(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("1\n1.0\n")
        loop = mock.patch.object(fileio, "_read_label_csv_loop",
                                 wraps=fileio._read_label_csv_loop)
        with loop as spy, pytest.raises(DataFormatError,
                                        match="row 2, column 1: not an integer"):
            fileio.read_label_csv(path)
        spy.assert_called_once()

    def test_read_peak_memory(self, tmp_path):
        # the reader holds one int8 buffer of half the file's bytes (~6 MB
        # here) and one chunk's temporaries
        votes = np.random.default_rng(0).integers(-1, 2, size=(50_000, 100),
                                                  dtype=np.int8)
        path = tmp_path / "votes.csv"
        fileio.write_label_csv(path, votes)
        tracemalloc.start()
        try:
            got = fileio.read_label_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6
        assert got.dtype == np.int8 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, votes)

    @settings(max_examples=400, deadline=None)
    @given(case=_vote_csvs(), chunk=st.integers(1, 16))
    @example(case=("s1\n1\n2\n", None, False), chunk=16)  # int8 takes 2; the range check must not
    def test_matches_token_loop(self, case, chunk):
        # chunks of a few bytes split rows, and \r\n pairs, between reads
        text, rows, clean = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "votes.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            want = _outcome(fileio._read_label_csv_loop, path)
            with mock.patch.object(fileio, "_CHUNK_BYTES", chunk), \
                    mock.patch.object(fileio, "_read_label_csv_loop",
                                      wraps=fileio._read_label_csv_loop) as loop:
                got = _outcome(fileio.read_label_csv, path)
        assert got == want
        if rows == []:
            assert got == ("error", f"{path}: no data rows")
        elif rows is not None:
            assert got == ("votes", np.int8, rows)
        if clean:
            # a well-formed file never needs the loop
            assert loop.call_count == 0

    @pytest.mark.parametrize("text, rows", [
        ("1     ,\t\t\t\t\t-1\n  0 ,1   \n", [[1, -1], [0, 1]]),
        (" \t -0 \t ,  1\t\n", [[0, 1]]),
        # blanks inside an entry, or between entries without a separator,
        # with as many separators as digits
        ("1        1,\n", None),
        ("-       1,0\n", None),
        ("1,0        -1,\n", None),
    ])
    def test_long_blank_runs_around_entries(self, tmp_path, text, rows):
        path = tmp_path / "votes.csv"
        path.write_text(text)
        got = _outcome(fileio.read_label_csv, path)
        assert got == _outcome(fileio._read_label_csv_loop, path)
        if rows is None:
            assert got[0] == "error"
        else:
            assert got == ("votes", np.int8, rows)


class TestGraphSpec:
    def test_round_trip(self, tmp_path):
        g = DependencyGraph(n_tasks=2, n_sources=3, assignment=(0, 0, 1),
                            task_edges=((0, 1),), source_edges=((0, 1),))
        path = tmp_path / "graph.txt"
        fileio.write_graph_spec(path, g)
        assert fileio.parse_graph_spec(path) == g

    def test_one_indexed(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("tasks 1\nsources 3\nassign 1 1\nassign 2 1\nassign 3 1\n"
                        "sedge 1 2\n")
        g = fileio.parse_graph_spec(path)
        assert g.assignment == (0, 0, 0)
        assert g.source_edges == ((0, 1),)

    def test_missing_assignment(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("tasks 1\nsources 2\nassign 1 1\n")
        with pytest.raises(AssignmentMissing, match=r"\[2\]"):
            fileio.parse_graph_spec(path)

    @pytest.mark.parametrize("source", [5, 0])
    def test_assign_of_a_missing_source_names_its_line(self, tmp_path, source):
        path = tmp_path / "graph.txt"
        path.write_text(f"tasks 1\nsources 3\nassign 1 1\nassign 2 1\nassign 3 1\n"
                        f"assign {source} 1\n")
        with pytest.raises(DataFormatError) as exc:
            fileio.parse_graph_spec(path)
        assert str(exc.value) == f"{path}:6: assign names a source outside 1 to 3"

    def test_unknown_keyword(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("tasks 1\nsources 1\nassign 1 1\nfrobnicate 3\n")
        with pytest.raises(DataFormatError, match="frobnicate"):
            fileio.parse_graph_spec(path)


class TestModelSpec:
    def test_theta_lines(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "tasks 1\nsources 2\nassign 1 1\nassign 2 1\nsedge 1 2\n"
            "theta task 1 0.2\ntheta acc 1 0.6\ntheta acc 2 0.5\n"
            "theta abstain 2 -0.1\ntheta sedge 1 2 0.25\n")
        th = fileio.parse_model_spec(path)
        assert th.theta_task == (0.2,)
        assert th.theta_acc == (0.6, 0.5)
        assert th.theta_abstain == (0.0, -0.1)
        assert th.theta_dep == {(0, 1): 0.25}
        assert th.abstaining

    def test_noabstain(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("tasks 1\nsources 1\nassign 1 1\n"
                        "theta acc 1 0.7\ntheta noabstain\n")
        th = fileio.parse_model_spec(path)
        assert not th.abstaining

    @pytest.mark.parametrize("line, message", [
        ("theta acc 0 0.7", "source 0 is outside 1 to 3"),
        ("theta acc 4 0.7", "source 4 is outside 1 to 3"),
        ("theta abstain 0 0.1", "source 0 is outside 1 to 3"),
        ("theta task 0 0.2", "task 0 is outside 1 to 2"),
        ("theta task 3 0.2", "task 3 is outside 1 to 2"),
        ("theta sedge 1 4 0.3", "source 4 is outside 1 to 3"),
        ("theta sedge 1 3 0.3", "sedge 1 3 is not an edge of the graph"),
        ("theta sedge 3 2 0.3", "sedge 3 2 is not an edge of the graph"),
        ("theta tedge 1 2 0.3", "tedge 1 2 is not an edge of the graph"),
        ("theta tedge 0 1 0.3", "task 0 is outside 1 to 2"),
    ])
    def test_weight_outside_the_graph_names_its_line(self, tmp_path, line, message):
        # a weight on a missing task, source or edge is refused, not written
        # to another entry (index -1 is the last one) or sampled off-graph
        path = tmp_path / "model.txt"
        path.write_text("tasks 2\nsources 3\nassign 1 1\nassign 2 1\nassign 3 2\n"
                        f"sedge 1 2\ntheta acc 1 0.6\n{line}\n")
        with pytest.raises(DataFormatError) as exc:
            fileio.parse_model_spec(path)
        assert str(exc.value) == f"{path}:8: bad theta line: {message}"

    def test_edge_weights_in_either_order(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("tasks 2\nsources 3\nassign 1 1\nassign 2 1\nassign 3 2\n"
                        "tedge 1 2\nsedge 1 2\ntheta sedge 2 1 0.3\ntheta tedge 2 1 -0.2\n"
                        "theta task 2 0.1\ntheta acc 3 0.5\n")
        th = fileio.parse_model_spec(path)
        assert th.theta_dep == {(0, 1): 0.3}
        assert th.theta_task_edge == {(0, 1): -0.2}
        assert th.theta_task == (0.0, 0.1)
        assert th.theta_acc == (0.0, 0.0, 0.5)


class TestPriorFile:
    def test_scalar_balance(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0.65\n")
        p = fileio.parse_prior_file(path, 1)
        assert p.p_pos(0) == pytest.approx(0.65)

    def test_joint_table(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("+1 +1 0.4\n+1 -1 0.1\n-1 +1 0.2\n-1 -1 0.3\n")
        p = fileio.parse_prior_file(path, 2)
        assert p.joint[0, 0] == pytest.approx(0.4)
        assert p.pair_mean(0, 1) == pytest.approx(0.4 - 0.1 - 0.2 + 0.3)

    def test_scalar_needs_single_task(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0.5\n")
        with pytest.raises(DataFormatError):
            fileio.parse_prior_file(path, 2)

    def test_configuration_listed_twice_names_its_line(self, tmp_path):
        # the repeats are not summed into P(Y=1) = 0.7; the line number
        # counts the comment line
        path = tmp_path / "prior.txt"
        path.write_text("# joint prior\n1 0.4\n-1 0.3\n1 0.3\n")
        with pytest.raises(DataFormatError) as exc:
            fileio.parse_prior_file(path, 1)
        assert str(exc.value) == f"{path}: line 4: configuration 1 listed twice"

    def test_joint_must_normalize(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("+1 0.5\n-1 0.6\n")
        with pytest.raises(DataFormatError, match="sum to 1"):
            fileio.parse_prior_file(path, 1)


class TestParameterFile:
    def test_round_trip_bit_exact(self, tmp_path):
        g = star_with_edges(4, [(0, 1)])
        j = enumerate_joint(random_model(g, seed=1))
        L, _ = sample(j, 5_000, seed=2)
        mu = recover_parameters(L, g, j.prior(), RunConfig())
        path = tmp_path / "params.json"
        fileio.save_parameters(path, mu)
        back = fileio.load_parameters(path)
        assert set(back.cliques) == set(mu.cliques)
        for vs in mu.cliques:
            np.testing.assert_array_equal(back.cliques[vs], mu.cliques[vs])
        for vs in mu.separators:
            np.testing.assert_array_equal(back.separators[vs], mu.separators[vs])
        # a second save is byte-identical
        path2 = tmp_path / "params2.json"
        fileio.save_parameters(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejected_graph_structure_names_the_file(self, tmp_path):
        # the file's graph joins L1, L2 and L3 into one clique
        g = star(4)
        mu = enumerate_joint(random_model(g, seed=1)).true_parameters()
        path = tmp_path / "params.json"
        fileio.save_parameters(path, mu)
        doc = json.loads(path.read_text())
        doc["graph"]["source_edges"] = [[1, 2], [1, 3], [2, 3]]
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedCliqueSize) as info:
            fileio.load_parameters(path)
        assert str(info.value) == (f"{path}: clique {{Y1,L1,L2,L3}} is not one task with "
                                   f"at most two sources")

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(DataFormatError):
            fileio.load_parameters(path)


def test_posterior_csv_format(tmp_path):
    path = tmp_path / "post.csv"
    fileio.save_posterior_csv(path, np.array([[0.123456789123, 1.0],
                                              [0.5, 0.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "row,task,p_pos"
    assert lines[1] == "1,1,0.123456789"
    assert lines[2] == "1,2,1"
    assert lines[3] == "2,1,0.5"


def _reference_write_posterior_csv(fh, probs):
    """The former writer: one f-string and one write per value."""
    fh.write("row,task,p_pos\n")
    n, D = probs.shape
    for r in range(n):
        for d in range(D):
            fh.write(f"{r + 1},{d + 1},{probs[r, d]:.9g}\n")


SPECIAL_PROBS = [0.0, 1.0, 0.5, 1e-5, 1e-300, 5e-324, 0.123456789123, 1 - 1e-12]


@settings(max_examples=100, deadline=None)
@given(D=st.sampled_from([1, 3]), n=st.integers(0, 9), block=st.integers(1, 4),
       data=st.data())
def test_posterior_writer_matches_per_value_reference(D, n, block, data):
    values = st.one_of(st.sampled_from(SPECIAL_PROBS), st.floats(0.0, 1.0))
    probs = np.array(data.draw(st.lists(values, min_size=n * D, max_size=n * D)),
                     dtype=np.float64).reshape(n, D)
    want = io.StringIO()
    _reference_write_posterior_csv(want, probs)
    got = io.StringIO()
    with mock.patch.object(fileio, "BLOCK_ROWS", block):
        fileio.write_posterior_csv(got, probs)
    assert got.getvalue() == want.getvalue()


def test_posterior_writer_special_values():
    for D in (1, 3):
        probs = np.resize(np.array(SPECIAL_PROBS), (len(SPECIAL_PROBS), D))
        want = io.StringIO()
        _reference_write_posterior_csv(want, probs)
        got = io.StringIO()
        fileio.write_posterior_csv(got, probs)
        assert got.getvalue() == want.getvalue()
    assert "1e-05" in got.getvalue() and "4.94065646e-324" in got.getvalue()
