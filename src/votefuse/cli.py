"""Command-line front door.

Exit codes: 0 success, 1 usage/configuration (a count below 1, an empty
``--windows`` or a ``--balance`` outside [0, 1] included), 2 data format or
an unreadable file, 3 numerical failure. ``--threads`` sets the BLAS thread
environment once the arguments parse, before any numeric module loads.
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A whole number of at least 1 (an argparse ``type``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="votefuse",
                description="closed-form label model over noisy voting sources")
    sub = p.add_subparsers(dest="command", required=True)

    def prior_flags(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--prior", help="prior file (balance scalar or joint table)")
        g.add_argument("--balance", type=float, help="P(Y=1) for a single task")

    def est_flags(sp):
        sp.add_argument("--signs", default="sum",
                        help="sum | anchor:I:+ | anchor:I:- | ratio-anchor")
        sp.add_argument("--abstain", default="alt", help="alt | rand:SEED")
        sp.add_argument("--ratio-fallback", action="store_true",
                        help="allow the E[v]/E[Y] fallback for untripletable sources")
        sp.add_argument("--threads", type=_count, default=None)

    def common(sp, labels=True, out=True):
        if labels:
            sp.add_argument("--labels", required=True, help="vote matrix CSV")
        sp.add_argument("--graph", required=True, help="graph spec file")
        prior_flags(sp)
        if out:
            sp.add_argument("--out", required=True, help="output path")
        est_flags(sp)

    fit = sub.add_parser("fit", help="fit parameters, write a parameter file")
    common(fit)

    pred = sub.add_parser("predict", help="posteriors from a fitted parameter file")
    pred.add_argument("--labels", required=True)
    pred.add_argument("--params", required=True, help="parameter file from fit")
    prior_flags(pred)
    pred.add_argument("--out", required=True)
    pred.add_argument("--threads", type=_count, default=None)

    fp = sub.add_parser("fit-predict", help="fit and write posteriors in one run")
    common(fp)
    fp.add_argument("--params-out", help="also write the parameter file here")

    st = sub.add_parser("stream", help="read vote rows on stdin, write posteriors")
    common(st, labels=False, out=False)
    st.add_argument("--window", type=int, default=None)
    st.add_argument("--warmup", type=int, default=None)

    sim = sub.add_parser("simulate", help="sample votes and hidden labels from a model spec")
    sim.add_argument("--model", required=True, help="graph spec plus theta lines")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="vote CSV path")
    sim.add_argument("--truth-out", required=True, help="hidden label CSV path")

    sw = sub.add_parser("sweep", help="window-size error sweep on a drifting stream")
    sw.add_argument("--model", required=True)
    sw.add_argument("--flip-period", type=_count, default=None)
    sw.add_argument("--steps", type=_count, required=True)
    sw.add_argument("--windows", required=True, help="comma-separated window sizes")
    sw.add_argument("--seed", type=int, default=0)
    prior_flags(sw)
    sw.add_argument("--warmup", type=int, default=None)
    sw.add_argument("--out", required=True)
    est_flags(sw)
    return p


def _parse_signs(text: str):
    if text in ("sum", "nonnegative-sum"):
        return {"sign_strategy": "nonnegative-sum"}
    if text == "ratio-anchor":
        return {"sign_strategy": "ratio-anchor"}
    if text.startswith("anchor:"):
        parts = text.split(":")
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise UsageError(f"bad --signs value {text!r}")
        try:
            src = int(parts[1])
        except ValueError:
            raise UsageError(f"bad --signs value {text!r}")
        if src < 1:
            raise UsageError(f"bad --signs value {text!r}: sources count from 1")
        return {"sign_strategy": "anchor", "anchor_source": src - 1,
                "anchor_sign": 1 if parts[2] == "+" else -1}
    raise UsageError(f"bad --signs value {text!r}")


def _parse_abstain(text: str):
    from .augment import AbstainPolicy
    if text == "alt":
        return AbstainPolicy(mode="alternating")
    if text.startswith("rand:"):
        try:
            seed = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --abstain value {text!r}")
        return AbstainPolicy(mode="seeded-random", seed=seed)
    raise UsageError(f"bad --abstain value {text!r}")


def _make_config(args):
    from .config import RunConfig
    kw = dict(_parse_signs(args.signs))
    kw.update(
        policy=_parse_abstain(args.abstain),
        ratio_fallback=args.ratio_fallback,
    )
    return RunConfig.from_dict(kw)


def _load_prior(args, n_tasks: int):
    from .fileio import parse_prior_file
    from .graph import ClassPrior
    if getattr(args, "balance", None) is not None:
        if n_tasks != 1:
            raise UsageError("--balance only applies to single-task graphs")
        try:
            return ClassPrior.from_balance(args.balance)
        except ValueError as exc:
            raise UsageError(f"bad --balance {args.balance}: {exc}") from None
    if getattr(args, "prior", None):
        return parse_prior_file(args.prior, n_tasks)
    return ClassPrior.uniform(n_tasks)


def _cmd_fit(args) -> int:
    from . import fileio
    from .graph import LabelMatrix
    from .recovery import recover_parameters
    votes = fileio.read_label_csv(args.labels)
    g = fileio.parse_graph_spec(args.graph)
    prior = _load_prior(args, g.n_tasks)
    cfg = _make_config(args)
    mu = recover_parameters(LabelMatrix(votes), g, prior, cfg)
    fileio.save_parameters(args.out, mu)
    print(mu.diagnostics.report())
    return 0


def _cmd_predict(args) -> int:
    from . import fileio
    from .graph import LabelMatrix
    from .inference import predict_proba
    votes = fileio.read_label_csv(args.labels)
    mu = fileio.load_parameters(args.params)
    prior = _load_prior(args, mu.graph.n_tasks)
    post = predict_proba(LabelMatrix(votes), mu, mu.jtree, prior)
    fileio.save_posterior_csv(args.out, post.probs)
    return 0


def _cmd_fit_predict(args) -> int:
    from . import fileio
    from .graph import LabelMatrix
    from .inference import predict_proba
    from .recovery import recover_parameters
    votes = fileio.read_label_csv(args.labels)
    g = fileio.parse_graph_spec(args.graph)
    prior = _load_prior(args, g.n_tasks)
    cfg = _make_config(args)
    L = LabelMatrix(votes)
    mu = recover_parameters(L, g, prior, cfg)
    if args.params_out:
        fileio.save_parameters(args.params_out, mu)
    post = predict_proba(L, mu, mu.jtree, prior)
    fileio.save_posterior_csv(args.out, post.probs)
    print(mu.diagnostics.report())
    return 0


def _cmd_stream(args) -> int:
    import numpy as np

    from . import fileio
    from .errors import DataFormatError
    from .online import RollingState
    g = fileio.parse_graph_spec(args.graph)
    prior = _load_prior(args, g.n_tasks)
    cfg = _make_config(args)
    state = RollingState(g, cfg, window=args.window, warmup=args.warmup)
    sys.stderr.write(f"warmup: prior-only posteriors for the first "
                     f"{state.warmup - 1} rows\n")
    for ln_no, line in enumerate(sys.stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [int(t) for t in line.split(",")]
        except ValueError as exc:
            raise DataFormatError(f"stdin row {ln_no}: {exc}") from exc
        if len(row) != g.n_sources or any(v not in (-1, 0, 1) for v in row):
            raise DataFormatError(
                f"stdin row {ln_no}: need {g.n_sources} entries in -1/0/+1")
        res = state.step(np.asarray(row, dtype=np.int8), prior)
        sys.stdout.write(",".join(f"{p:.9g}" for p in res.posterior_pos) + "\n")
        sys.stdout.flush()
    return 0


def _cmd_simulate(args) -> int:
    from . import fileio
    from .graph import validate_graph
    from .oracle import enumerate_joint, sample
    theta = fileio.parse_model_spec(args.model)
    validate_graph(theta.graph)
    joint = enumerate_joint(theta)
    L, Y = sample(joint, args.n, args.seed)
    fileio.write_label_csv(args.out, L.votes)
    fileio.write_label_csv(args.truth_out, Y)
    print(f"wrote {args.n} rows to {args.out}; hidden labels to {args.truth_out}")
    return 0


def _cmd_sweep(args) -> int:
    from . import fileio
    from .online import sweep_window
    from .oracle import DriftStream
    theta = fileio.parse_model_spec(args.model)
    prior = _load_prior(args, theta.graph.n_tasks)
    try:
        windows = [int(w) for w in args.windows.split(",") if w]
    except ValueError as exc:
        raise UsageError(f"bad --windows: {exc}")
    if not windows:
        raise UsageError("--windows names no window size")
    cfg = _make_config(args)
    stream = DriftStream(base=theta, n_steps=args.steps, seed=args.seed,
                         flip_period=args.flip_period)
    res = sweep_window(stream, windows, cfg, prior=prior, warmup=args.warmup)
    with open(args.out, "w") as fh:
        fh.write("window,mean_parameter_error\n")
        for w in sorted(res["errors"]):
            fh.write(f"{w},{res['errors'][w]:.9g}\n")
    print(f"best window: {res['best_window']}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "fit-predict": _cmd_fit_predict,
    "stream": _cmd_stream,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "threads", None):  # checked, and before numpy loads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import (
        ConfigError,
        DataFormatError,
        EstimationError,
        GraphError,
        InferenceError,
        RecoveryError,
        ShapeMismatch,
        TooLarge,
    )
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, GraphError, ShapeMismatch, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, RecoveryError, InferenceError, TooLarge) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
