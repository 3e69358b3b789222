import importlib.util
from pathlib import Path

import numpy as np

import votefuse
from votefuse import inference, recovery
from votefuse.augment import augment_graph
from votefuse.graph import ClassPrior
from votefuse.moments import enumerate_triplets
from votefuse.oracle import sample_symmetric_star, star_graph


def test_star_import_binds_every_export():
    ns = {}
    exec("from votefuse import *", ns)
    assert votefuse.__all__ == sorted(votefuse._EXPORTS)
    for name in votefuse.__all__:
        assert ns[name] is getattr(votefuse, name)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_resolve():
    # the traced benchmark run wraps these names where votefuse looks them
    # up; a rename here would break it and its self-test
    tracing = _tracing()
    for owner, attribute, _span, _count in tracing.PATCHES:
        assert callable(getattr(tracing._owner(owner), attribute, None)), (owner, attribute)
    # the plan span counts partner columns: 2m - 2 per even column of a star
    plan = enumerate_triplets(augment_graph(star_graph(100)))
    assert tracing._triplet_count(plan) == 100 * 198


def test_benchmark_layer_spans_are_each_recorded_once():
    # the traced benchmark times augment, statistics and inference through
    # these wrapped names; each must run exactly once per fit and predict
    tracing = _tracing()
    L, _ = sample_symmetric_star(np.full(5, 0.6), np.full(5, 0.3), 0.6, 400, seed=1)
    prior = ClassPrior.from_balance(0.6)
    with tracing.installed(tracing.Recorder()) as rec:
        mu = recovery.recover_parameters(L, star_graph(5), prior)
        inference.predict_proba(L, mu, mu.jtree, prior)
    names = [s.name for s in rec.spans]
    for name in ("augment.matrix", "moments.stats", "inference.predict"):
        assert names.count(name) == 1, (name, names)
