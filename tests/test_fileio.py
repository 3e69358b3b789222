import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votefuse import fileio
from votefuse.errors import AssignmentMissing, DataFormatError
from votefuse.graph import DependencyGraph
from votefuse.oracle import enumerate_joint, random_model, sample
from votefuse.recovery import recover_parameters
from votefuse.config import RunConfig

from conftest import star_with_edges


_VALID = ["1", "0", "-1", "+1", "01", "-0", "-01"]
# int() reads "0_0" and loadtxt refuses it; some numpy releases parse
# "1.0", "0.5", "nan" and "256" via float and cast them to 1, 0, 0, 0
_BAD = ["2", "-2", "127", "300", "-129", "256", "1.0", "0.5", "nan", "",
        "x", "0_0"]
_PADS = ["", " ", "\t", " \t"]
_BLANKS = ["", " ", "\t "]
_HEADERS = ["s1,s2", "votes", " id , s1", "a,1"]


@st.composite
def _vote_csvs(draw):
    """A small vote CSV text; its rows when every entry is valid and the
    rows agree in length, else None; and whether np.loadtxt must take all
    of it."""
    blanks = st.lists(st.sampled_from(_BLANKS), max_size=2)
    lines = draw(blanks)
    if draw(st.booleans()):
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
        # loadtxt skips empty lines but refuses whitespace-only ones
        clean = clean and valid and not any(gap)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text, rows, clean


def _outcome(read, path):
    try:
        votes = read(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return "votes", votes.dtype, votes.tolist()


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        votes = np.array([[1, 0, -1], [0, 0, 1]], dtype=np.int8)
        path = tmp_path / "votes.csv"
        fileio.write_label_csv(path, votes)
        np.testing.assert_array_equal(fileio.read_label_csv(path), votes)

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
        # a numpy that parses "1.0" via float returns 1 with only a
        # DeprecationWarning, which Python hides outside tests
        def float_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return np.ones((2, 1), dtype=np.int8)

        path = tmp_path / "votes.csv"
        path.write_text("1\n1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with mock.patch.object(fileio.np, "loadtxt", float_loadtxt):
                with pytest.raises(DataFormatError,
                                   match="row 2, column 1: not an integer"):
                    fileio.read_label_csv(path)

    @settings(max_examples=400, deadline=None)
    @given(_vote_csvs())
    @example(("s1\n1\n2\n", None, False))  # int8 takes 2; the range check must not
    def test_matches_token_loop(self, case):
        text, rows, clean = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "votes.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            want = _outcome(fileio._read_label_csv_loop, path)
            with mock.patch.object(fileio, "_read_label_csv_loop",
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
