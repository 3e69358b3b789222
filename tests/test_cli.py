import json
import os
import subprocess
import sys

import numpy as np
import pytest

from votefuse.cli import main
from votefuse.config import RunConfig

from conftest import child_env

MODEL = """\
tasks 1
sources 4
assign 1 1
assign 2 1
assign 3 1
assign 4 1
theta task 1 0.2
theta acc 1 0.6
theta acc 2 0.5
theta acc 3 0.8
theta acc 4 0.7
theta abstain 1 0.1
theta abstain 2 -0.2
theta abstain 3 0.3
"""


@pytest.fixture()
def workdir(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(MODEL)
    rc = main(["simulate", "--model", str(model), "--n", "5000", "--seed", "7",
               "--out", str(tmp_path / "votes.csv"),
               "--truth-out", str(tmp_path / "truth.csv")])
    assert rc == 0
    return tmp_path


def test_fit_then_predict_equals_fit_predict(workdir, capsys):
    common = ["--labels", str(workdir / "votes.csv"),
              "--graph", str(workdir / "model.txt"), "--balance", "0.55"]
    assert main(["fit", *common, "--out", str(workdir / "params.json")]) == 0
    assert main(["predict", "--labels", str(workdir / "votes.csv"),
                 "--params", str(workdir / "params.json"), "--balance", "0.55",
                 "--out", str(workdir / "post1.csv")]) == 0
    assert main(["fit-predict", *common, "--out", str(workdir / "post2.csv"),
                 "--params-out", str(workdir / "params2.json")]) == 0
    assert (workdir / "post1.csv").read_bytes() == (workdir / "post2.csv").read_bytes()
    assert (workdir / "params.json").read_bytes() == (workdir / "params2.json").read_bytes()


def test_repeat_runs_are_byte_identical(workdir):
    common = ["--labels", str(workdir / "votes.csv"),
              "--graph", str(workdir / "model.txt"), "--balance", "0.55"]
    main(["fit-predict", *common, "--out", str(workdir / "a.csv")])
    main(["fit-predict", *common, "--out", str(workdir / "b.csv")])
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_usage_error_exit_code():
    assert main(["fit", "--labels", "x.csv"]) == 1


def test_malformed_csv_exit_code(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("1,0,1,1\n0,2,0,0\n")
    rc = main(["fit", "--labels", str(bad), "--graph", str(workdir / "model.txt"),
               "--balance", "0.55", "--out", str(workdir / "p.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "column 2" in err


def test_missing_input_is_a_data_error(workdir, capsys):
    rc = main(["fit", "--labels", str(workdir / "missing.csv"),
               "--graph", str(workdir / "model.txt"), "--balance", "0.55",
               "--out", str(workdir / "p.json")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("assign 4 2", "source L4 assigned to unknown task Y2"),
    ("sedge 2 2", "source edge (L2, L2) is a self-edge"),
    ("sedge 0 2", "source edge (L0, L2) out of range"),
    ("tedge 1 3", "task edge (Y1, Y3) out of range"),
])
def test_graph_spec_error_names_the_file_and_one_based_vertices(workdir, capsys, line, message):
    spec = workdir / "bad.spec"
    spec.write_text(MODEL + line + "\n")
    rc = main(["fit-predict", "--labels", str(workdir / "votes.csv"), "--graph", str(spec),
               "--balance", "0.55", "--out", str(workdir / "post.csv")])
    assert rc == 2
    assert f"data error: {spec}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("source", [5, 0])
def test_assign_of_a_missing_source_is_a_data_error(workdir, capsys, source):
    spec = workdir / "bad.spec"
    spec.write_text(MODEL + f"assign {source} 1\n")
    rc = main(["fit-predict", "--labels", str(workdir / "votes.csv"), "--graph", str(spec),
               "--balance", "0.55", "--out", str(workdir / "post.csv")])
    assert rc == 2
    assert (f"data error: {spec}:15: assign names a source outside 1 to 4"
            in capsys.readouterr().err)


@pytest.mark.parametrize("line, message", [
    ("theta acc 0 0.7", "15: bad theta line: source 0 is outside 1 to 4"),
    ("theta sedge 1 2 0.3", "15: bad theta line: sedge 1 2 is not an edge of the graph"),
])
def test_simulate_refuses_a_weight_outside_the_graph(tmp_path, capsys, line, message):
    model = tmp_path / "model.txt"
    model.write_text(MODEL + line + "\n")
    rc = main(["simulate", "--model", str(model), "--n", "100", "--seed", "1",
               "--out", str(tmp_path / "votes.csv"), "--truth-out", str(tmp_path / "truth.csv")])
    assert rc == 2
    assert f"data error: {model}:{message}" in capsys.readouterr().err
    assert not (tmp_path / "votes.csv").exists()


def test_prior_listing_a_configuration_twice_is_a_data_error(workdir, capsys):
    prior = workdir / "prior.txt"
    prior.write_text("1 0.4\n-1 0.3\n1 0.3\n")
    rc = main(["fit-predict", "--labels", str(workdir / "votes.csv"),
               "--graph", str(workdir / "model.txt"), "--prior", str(prior),
               "--out", str(workdir / "post.csv")])
    assert rc == 2
    assert (f"data error: {prior}: line 3: configuration 1 listed twice"
            in capsys.readouterr().err)


def test_importing_the_package_and_cli_loads_no_numpy():
    # --threads sets the BLAS thread environment after the arguments parse,
    # which works only while no numeric module is loaded yet
    code = ("import sys, votefuse, votefuse.cli; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, out", [("fit", "params.json"), ("fit-predict", "post.csv")])
def test_rejected_graph_structure_names_the_file(workdir, capsys, command, out):
    # L1, L2 and L3 form a triangle: a clique of one task and three sources
    spec = workdir / "triangle.spec"
    spec.write_text(MODEL + "sedge 1 2\nsedge 1 3\nsedge 2 3\n")
    rc = main([command, "--labels", str(workdir / "votes.csv"), "--graph", str(spec),
               "--balance", "0.55", "--out", str(workdir / out)])
    assert rc == 2
    assert (f"data error: {spec}: clique {{Y1,L1,L2,L3}} is not one task with at most "
            f"two sources") in capsys.readouterr().err


def _coupled_params(cliques=None, separators=None):
    """A parameter document for the four voting sources with sources 1 and 2
    coupled (uniform tables), with its clique or separator records replaced."""
    def record(sources, size):
        return {"tasks": [1], "sources": sources, "table": [1.0 / size] * size}

    default = [record([1, 2], 18), record([3], 6), record([4], 6)]
    return {"format": "votefuse-parameters-v1",
            "graph": {"tasks": 1, "sources": 4, "assignment": [1, 1, 1, 1],
                      "task_edges": [], "source_edges": [[1, 2]]},
            "cliques": default if cliques is None else cliques(default),
            "separators": [{**record([], 2), "degree": 3}] if separators is None else separators}


def _negative(records):
    records[1]["table"][0] = -0.1
    return records


def _not_a_number(records):
    records[2]["table"][3] = float("nan")
    return records


@pytest.mark.parametrize("doc, field", [
    ({"format": "votefuse-parameters-v1"}, "'graph'"),
    ([1, 2], "not a votefuse parameter file"),
    ({"format": "votefuse-parameters-v1",
      "graph": {"tasks": "1", "sources": 4}}, "'graph.tasks'"),
    (_coupled_params(cliques=lambda r: r[1:]), "no table for clique {Y1,L1,L2}"),
    (_coupled_params(separators=[]), "no table for separator {Y1}"),
    (_coupled_params(cliques=lambda r: r + r[:1]),
     "cliques[3]: a second table for {Y1,L1,L2}"),
    (_coupled_params(cliques=lambda r: r + [{**r[1], "sources": [1]}]),
     "{Y1,L1} is not a clique of the junction tree"),
    (_coupled_params(cliques=_negative), "table for {Y1,L3} has a negative or non-finite entry"),
    (_coupled_params(cliques=_not_a_number),
     "table for {Y1,L4} has a negative or non-finite entry"),
    ({**_coupled_params(), "graph": {**_coupled_params()["graph"], "source_edges": [[2, 2]]}},
     "source edge (L2, L2) is a self-edge"),
])
def test_malformed_parameter_file_is_a_data_error(workdir, capsys, doc, field):
    params = workdir / "params.json"
    params.write_text(json.dumps(doc))
    rc = main(["predict", "--labels", str(workdir / "votes.csv"),
               "--params", str(params), "--balance", "0.55",
               "--out", str(workdir / "post.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(params) in err and field in err


def test_coupled_parameter_document_is_well_formed(workdir):
    params = workdir / "params.json"
    params.write_text(json.dumps(_coupled_params()))
    assert main(["predict", "--labels", str(workdir / "votes.csv"),
                 "--params", str(params), "--balance", "0.55",
                 "--out", str(workdir / "post.csv")]) == 0


def test_stream_nonpositive_window_is_a_usage_error(workdir, capsys):
    rc = main(["stream", "--graph", str(workdir / "model.txt"), "--balance", "0.55",
               "--window", "0"])
    assert rc == 1
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("warmup", ["0", "-7"])
def test_stream_nonpositive_warmup_is_a_usage_error(workdir, capsys, warmup):
    # it used to announce prior-only posteriors for the first -1 (or -8) rows
    rc = main(["stream", "--graph", str(workdir / "model.txt"), "--balance", "0.55",
               "--warmup", warmup])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "warmup" in err
    assert "prior-only" not in err


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_bad_thread_count_is_a_usage_error_before_the_environment(workdir, capsys,
                                                                  monkeypatch, threads):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "1")
    rc = main(["fit-predict", "--labels", str(workdir / "votes.csv"),
               "--graph", str(workdir / "model.txt"), "--balance", "0.55",
               "--out", str(workdir / "post.csv"), "--threads", threads])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert all(os.environ[var] == "1" for var in _THREAD_VARS)
    assert not (workdir / "post.csv").exists()


@pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-5"),
                                         ("--flip-period", "0"), ("--flip-period", "-3"),
                                         ("--windows", ""), ("--windows", ","),
                                         ("--balance", "1.5"), ("--balance", "nan")])
def test_bad_sweep_argument_is_a_usage_error(workdir, capsys, flag, value):
    args = {"--model": str(workdir / "model.txt"), "--flip-period": "200", "--steps": "300",
            "--windows": "60,100", "--balance": "0.55", "--out": str(workdir / "curve.csv")}
    args[flag] = value
    rc = main(["sweep", *[tok for item in args.items() for tok in item]])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage error" in captured.err
    assert "best window" not in captured.out
    assert not (workdir / "curve.csv").exists()


@pytest.mark.parametrize("balance", ["1.5", "-0.1", "nan"])
def test_bad_balance_is_a_usage_error(workdir, capsys, balance):
    rc = main(["fit", "--labels", str(workdir / "votes.csv"), "--graph",
               str(workdir / "model.txt"), "--balance", balance,
               "--out", str(workdir / "params.json")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("signs", ["anchor:0:+", "anchor:-1:-", "anchor:5:+", "anchor:99:+"])
@pytest.mark.parametrize("command", ["fit-predict", "stream"])
def test_out_of_range_sign_anchor_is_a_usage_error(workdir, capsys, signs, command):
    # the model has four sources, numbered from 1
    args = ["--graph", str(workdir / "model.txt"), "--balance", "0.55", "--signs", signs]
    if command == "fit-predict":
        args += ["--labels", str(workdir / "votes.csv"), "--out", str(workdir / "post.csv")]
    assert main([command, *args]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (workdir / "post.csv").exists()


def test_out_of_range_anchor_source_is_rejected_by_the_library(workdir):
    from votefuse.errors import ConfigError
    from votefuse.graph import ClassPrior, DependencyGraph, LabelMatrix
    from votefuse.online import RollingState
    from votefuse.oracle import enumerate_joint, random_model
    from votefuse.recovery import recover_from_moments, recover_parameters

    with pytest.raises(ConfigError, match="anchor_source"):
        RunConfig(sign_strategy="anchor", anchor_source=-1)
    g = DependencyGraph(1, 4, (0,) * 4)
    L = LabelMatrix(np.loadtxt(workdir / "votes.csv", delimiter=",", dtype=np.int8))
    moments = enumerate_joint(random_model(g, seed=1)).moment_estimates()
    for source in (4, 99):
        cfg = RunConfig(sign_strategy="anchor", anchor_source=source)
        with pytest.raises(ConfigError, match=f"anchor source {source + 1} "):
            recover_parameters(L, g, ClassPrior.from_balance(0.55), cfg)
        with pytest.raises(ConfigError, match=f"anchor source {source + 1} "):
            recover_from_moments(moments, g, cfg)
        with pytest.raises(ConfigError, match=f"anchor source {source + 1} "):
            RollingState(g, cfg, window=50)
    # the last source is in range
    cfg = RunConfig(sign_strategy="anchor", anchor_source=3)
    assert recover_parameters(L, g, ClassPrior.from_balance(0.55), cfg).graph == g


def test_other_sign_strategies_ignore_the_anchor_source(workdir):
    # only the anchor strategy reads anchor_source, so a stray one is no error
    from votefuse.graph import ClassPrior, DependencyGraph, LabelMatrix
    from votefuse.online import RollingState
    from votefuse.recovery import recover_parameters

    g = DependencyGraph(1, 4, (0,) * 4)
    L = LabelMatrix(np.loadtxt(workdir / "votes.csv", delimiter=",", dtype=np.int8))
    prior = ClassPrior.from_balance(0.55)
    plain = recover_parameters(L, g, prior, RunConfig())
    for source in (-1, 7):
        cfg = RunConfig.from_dict({"sign_strategy": "nonnegative-sum", "anchor_source": source})
        np.testing.assert_array_equal(recover_parameters(L, g, prior, cfg).table, plain.table)
        RollingState(g, cfg, window=50)


def test_numerical_failure_exit_code(workdir, tmp_path, capsys):
    # fully dependent sources leave no valid triplet
    model = tmp_path / "dep.txt"
    model.write_text("tasks 1\nsources 3\nassign 1 1\nassign 2 1\nassign 3 1\n"
                     "sedge 1 2\nsedge 1 3\nsedge 2 3\n")
    rc = main(["fit", "--labels", str(workdir / "votes.csv")[:-9] + "votes.csv",
               "--graph", str(model), "--balance", "0.55",
               "--out", str(tmp_path / "p.json")])
    assert rc == 2  # the three-source clique is structurally rejected

    model2 = tmp_path / "dep2.txt"
    model2.write_text("tasks 1\nsources 4\nassign 1 1\nassign 2 1\nassign 3 1\n"
                      "assign 4 1\nsedge 1 2\nsedge 3 4\n")
    votes = workdir / "votes.csv"
    rc = main(["fit", "--labels", str(votes), "--graph", str(model2),
               "--balance", "0.55", "--out", str(tmp_path / "p.json")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_stream_mode(workdir):
    rows = "1,0,-1,1\n0,0,0,0\n-1,1,1,0\n"
    proc = subprocess.run(
        [sys.executable, "-m", "votefuse.cli", "stream",
         "--graph", str(workdir / "model.txt"), "--balance", "0.55",
         "--window", "50", "--warmup", "2"],
        input=rows, capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    out = proc.stdout.strip().splitlines()
    assert len(out) == 3
    assert out[0] == "0.55"  # warmup row carries the prior
    for line in out:
        p = float(line)
        assert 0.0 <= p <= 1.0


def test_sweep_mode(workdir, capsys):
    rc = main(["sweep", "--model", str(workdir / "model.txt"),
               "--flip-period", "200", "--steps", "600",
               "--windows", "60,400", "--seed", "3", "--balance", "0.55",
               "--warmup", "40", "--out", str(workdir / "curve.csv")])
    assert rc == 0
    lines = (workdir / "curve.csv").read_text().splitlines()
    assert lines[0] == "window,mean_parameter_error"
    assert len(lines) == 3
    assert "best window" in capsys.readouterr().out


def test_simulate_fit_reproduces_recovery_bound(tmp_path):
    # the CLI pipeline on a simulated independent-source model recovers the
    # generating tables to the same bound the library-level criterion uses
    from votefuse import fileio
    from votefuse.oracle import enumerate_joint

    model = tmp_path / "star.txt"
    lines = ["tasks 1", "sources 5"]
    lines += [f"assign {i} 1" for i in range(1, 6)]
    accs = [0.6, 0.675, 0.75, 0.825, 0.9]
    lines += [f"theta acc {i + 1} {np.arctanh(a):.12f}" for i, a in enumerate(accs)]
    lines.append("theta noabstain")
    model.write_text("\n".join(lines) + "\n")

    assert main(["simulate", "--model", str(model), "--n", "100000", "--seed", "1",
                 "--out", str(tmp_path / "v.csv"),
                 "--truth-out", str(tmp_path / "t.csv")]) == 0
    assert main(["fit", "--labels", str(tmp_path / "v.csv"), "--graph", str(model),
                 "--balance", "0.5", "--out", str(tmp_path / "p.json")]) == 0

    fitted = fileio.load_parameters(tmp_path / "p.json")
    truth = enumerate_joint(fileio.parse_model_spec(model)).true_parameters()
    worst = max(float(np.max(np.abs(fitted.cliques[vs] - truth.cliques[vs])))
                for vs in truth.cliques)
    assert worst <= 0.02


def test_simulate_truth_stays_separate(workdir):
    votes = np.loadtxt(workdir / "votes.csv", delimiter=",", dtype=int)
    truth = np.loadtxt(workdir / "truth.csv", delimiter=",", dtype=int)
    assert votes.shape == (5000, 4)
    assert truth.shape == (5000,) or truth.shape == (5000, 1)
    assert set(np.unique(truth)) <= {-1, 1}
