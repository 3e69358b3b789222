"""votefuse: closed-form label model over noisy ternary voting sources.

Estimates source accuracies and correlations without ground truth by solving
triplet agreement systems over a binary graphical model, converts them to
clique marginal tables, and fuses votes into probabilistic labels, in batch
or over a rolling window.

Attributes are loaded lazily so the CLI can configure threading before any
numeric module is imported.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # model core
    "LabelMatrix": "graph",
    "DependencyGraph": "graph",
    "JunctionTree": "graph",
    "ClassPrior": "graph",
    "LabelModelParameters": "graph",
    "VarSet": "graph",
    "validate_graph": "graph",
    "build_junction_tree": "graph",
    # augmentation
    "AbstainPolicy": "augment",
    "AugmentedLabelMatrix": "augment",
    "AugmentedGraph": "augment",
    "augment_matrix": "augment",
    "augment_graph": "augment",
    # moments
    "MomentEstimates": "moments",
    "TripletPlan": "moments",
    "Accuracies": "moments",
    "estimate_moments": "moments",
    "enumerate_triplets": "moments",
    "resolve_signs": "moments",
    "ratio_accuracy": "moments",
    "estimate_accuracies": "moments",
    # recovery
    "TransformPair": "recovery",
    "build_transform": "recovery",
    "recover_parameters": "recovery",
    "recover_from_moments": "recovery",
    # inference
    "PosteriorLabels": "inference",
    "joint_probability": "inference",
    "posterior": "inference",
    "predict_proba": "inference",
    "one_vs_all": "inference",
    "majority_vote": "inference",
    # online
    "RollingState": "online",
    "sweep_window": "online",
    # oracle
    "CanonicalParameters": "oracle",
    "ExactJoint": "oracle",
    "enumerate_joint": "oracle",
    "exact_statistics": "oracle",
    "sample": "oracle",
    "random_model": "oracle",
    "star_graph": "oracle",
    "DriftStream": "oracle",
    # config
    "RunConfig": "config",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        mod = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(_EXPORTS) + ["__version__"])
