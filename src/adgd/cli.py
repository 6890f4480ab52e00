"""Benchmark harness: run one experiment to a CSV trace, compare traces.

Subcommands
-----------
``run``
    Configure one (experiment, optimizer) pair, run it, and write the
    per-iteration CSV trace.  Exit status 0 on success, 2 on a usage
    error, 3 when the run aborted numerically (the partial trace plus an
    error-marker row is still written), 4 when a Jacobi eigensolver gave
    up (``ConvergenceError``; no trace is written).
``compare``
    Read two or more completed trace files for the same problem instance
    and print a per-optimizer summary table.

``EXPERIMENTS`` pairs each benchmark objective with its manifold; the
orthant's flat-space equivalence check also runs the adaptive method on
the objective's pullback over :class:`~adgd.manifolds.Euclidean` and adds
a ``deviation`` column (:func:`twin_deviations`).
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys

import numpy as np

from . import problems, trace_io
from .errors import ConvergenceError
from .manifolds import BuresWasserstein, Euclidean, PositiveOrthant, Sphere
from .optimizers import (
    STATUS_ABORTED,
    RunConfig,
    adgd_run,
    armijo_run,
    fixed_run,
)

_CENTER_OF_MASS_POINTS = 50
_WLS_SPARSE_DENSITY = 0.1

# experiment -> (default n, manifold class, instance builder taking (n, seed))
EXPERIMENTS = {
    "center-of-mass": (
        10, Sphere, lambda n, seed: problems.center_of_mass(n, _CENTER_OF_MASS_POINTS, seed)
    ),
    "rayleigh": (100, Sphere, problems.rayleigh),
    "lyapunov": (20, BuresWasserstein, problems.lyapunov_objective),
    "wls-dense": (20, BuresWasserstein, problems.weighted_least_squares),
    "wls-sparse": (
        20,
        BuresWasserstein,
        lambda n, seed: problems.weighted_least_squares(n, seed, density=_WLS_SPARSE_DENSITY),
    ),
    "orthant-equivalence": (10, PositiveOrthant, problems.linear_minus_log),
}


# run flag -> the optimizers that read it; any other optimizer refuses it
_OPTIMIZER_FLAGS = {
    "alpha0": ("adgd", "armijo"),
    "first_ls": ("adgd",),
    "armijo_c": ("armijo",),
    "armijo_beta": ("armijo",),
    "armijo_lambda": ("armijo",),
    "fixed_alpha": ("fixed",),
}


class UsageError(Exception):
    pass


def _parse_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_flags(parser, values):
    """The config-file ``values`` as ``run`` flags, for argparse to convert
    and check like the command line's own."""
    defaults = vars(parser.parse_args(["run"]))
    flags = []
    for key, raw in values.items():
        if key in ("command", "config") or key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(defaults[key], bool):
            flags.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif raw.lower() not in ("0", "false", "no"):
            raise UsageError(f"config key {key!r}: expected 1/true/yes or 0/false/no, got {raw!r}")
    return flags


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def twin_deviations(points, twin_points, count):
    """The deviation column of an orthant run from its flat twin: for each
    k < ``count``, ``max_i |x_k - exp(y_k)|_i / |exp(y_k)|_i`` with x_k from
    ``points`` and y_k from ``twin_points``.

    A run with fewer than ``count`` points is extended by its last one, as
    a run that stops at a bit-exact stationary point would stay there.
    Nothing is computed past ``count``: a twin that runs on after its
    orthant run aborted may overflow ``exp``.  A reference below 1e-300
    divides by 1e-300.
    """
    deviations = []
    for k in range(count):
        xk = points[min(k, len(points) - 1)]
        ref = np.exp(twin_points[min(k, len(twin_points) - 1)])
        deviations.append(float(np.max(np.abs(xk - ref) / np.maximum(np.abs(ref), 1e-300))))
    return deviations


def _cmd_run(args):
    if args.optimizer == "fixed" and args.fixed_alpha is None:
        raise UsageError("--fixed-alpha is required with --optimizer fixed")
    for flag, optimizers in _OPTIMIZER_FLAGS.items():
        value = getattr(args, flag)
        if args.optimizer not in optimizers and value is not None and value is not False:
            raise UsageError(
                f"--{flag.replace('_', '-')} only applies to --optimizer {' or '.join(optimizers)}"
            )
    if args.experiment == "orthant-equivalence" and args.optimizer != "adgd":
        raise UsageError("orthant-equivalence supports only --optimizer adgd")
    default_n, manifold_cls, build = EXPERIMENTS[args.experiment]
    n = default_n if args.n is None else args.n

    manifold, problem = manifold_cls(), build(n, args.seed)
    config = RunConfig(
        **{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(RunConfig)
            if getattr(args, f.name, None) is not None
        }
    )
    if args.optimizer == "adgd":
        trace = adgd_run(config, manifold, problem)
    elif args.optimizer == "armijo":
        trace = armijo_run(config, manifold, problem)
    else:
        trace = fixed_run(config, manifold, problem, args.fixed_alpha)

    deviations = None
    if args.experiment == "orthant-equivalence":
        pullback = problems.Problem(*problem.extras["pullback"], x0=np.log(problem.x0))
        twin = adgd_run(config, Euclidean(), pullback)
        deviations = twin_deviations(trace.points, twin.points, len(trace.rows))

    meta = vars(args) | vars(config)
    meta.update(n=n, phi_star=problem.optimum_value, status=trace.status)
    trace_io.write_trace(args.out, trace, meta, deviations)
    if trace.status == STATUS_ABORTED:
        print(f"run aborted: {trace.message}", file=sys.stderr)
        return 3
    return 0


def _cmd_compare(args):
    loaded = []
    for path in args.traces:
        meta, trace, _ = trace_io.read_trace(path)
        if not trace.rows:
            raise UsageError(f"{path}: empty trace")
        # The summary prints these; an error marker supplies the status.
        needed = {key: meta[key] for key in ("experiment", "n", "seed", "optimizer")}
        needed["status"] = trace.status
        if meta["optimizer"] == "armijo":
            needed["armijo_lambda"] = meta["armijo_lambda"]
        for key, value in needed.items():
            if value is None:
                raise UsageError(f"{path}: metadata has no {key} value")
        loaded.append((meta, trace))

    instance = {(m["experiment"], m["n"], m["seed"]) for m, _ in loaded}
    if len(instance) != 1:
        raise UsageError(
            "traces describe different problem instances: "
            + ", ".join(sorted(f"{e}/n={n}/seed={s}" for e, n, s in instance))
        )
    experiment, n, seed = next(iter(instance))
    print(f"experiment={experiment} n={n} seed={seed}")

    phi_stars = [float(m["phi_star"]) for m, _ in loaded if m["phi_star"] is not None]
    phi_star = phi_stars[0] if phi_stars else min(
        min(r.phi for r in trace.rows) for _, trace in loaded
    )

    print(
        f"{'optimizer':<10} {'iters':>6} {'expensive':>10} {'final_gap':>13} "
        f"{'alpha_min':>13} {'alpha_med':>13} {'alpha_max':>13} {'status':>9}"
    )
    for meta, trace in loaded:
        label = meta["optimizer"]
        if label == "armijo":
            label = f"armijo({meta['armijo_lambda']})"
        # A run that stops at row 0 takes no step: its step statistics are nan.
        alphas = [r.alpha for r in trace.rows if r.alpha > 0.0] or [float("nan")]
        last = trace.rows[-1]
        print(
            f"{label:<10} {last.k:>6} {last.expensive_ops:>10} "
            f"{last.phi - phi_star:>13.6e} {min(alphas):>13.6e} "
            f"{statistics.median(alphas):>13.6e} {max(alphas):>13.6e} {trace.status:>9}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adgd-bench",
        description="Benchmark harness for adaptive Riemannian gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write a CSV trace")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--n", type=_int_at_least(1), default=None, help="problem dimension")
    run.add_argument("--seed", type=_int_at_least(0), default=0, help="instance seed (64-bit)")
    run.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    run.add_argument("--tol", type=float, default=None, help="gradient-norm stopping tolerance")
    run.add_argument("--alpha0", type=float, default=None, help="initial step size")
    run.add_argument("--first-ls", action="store_true", dest="first_ls",
                     help="double alpha0 until the first-step ratio reaches 1")
    run.add_argument("--optimizer", choices=("adgd", "armijo", "fixed"), default="adgd")
    run.add_argument("--armijo-c", type=float, default=None, dest="armijo_c")
    run.add_argument("--armijo-beta", type=float, default=None, dest="armijo_beta")
    run.add_argument("--armijo-lambda", type=float, default=None, dest="armijo_lambda")
    run.add_argument("--fixed-alpha", type=float, default=None, dest="fixed_alpha")
    run.add_argument("--out", default=None, help="output CSV path")
    run.add_argument("--config", default=None,
                     help="key=value file supplying defaults for any flag above")

    cmp_parser = sub.add_parser("compare", help="summarize two or more completed traces")
    cmp_parser.add_argument("traces", nargs="+", help="trace CSV files")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            if len(args.traces) < 2:
                raise UsageError("compare needs at least two trace files")
            return _cmd_compare(args)
        if args.config is not None:
            # Config flags go before the explicit ones: argparse keeps the
            # last value, so an explicit flag wins.
            flags = _config_flags(parser, _parse_config_file(args.config))
            at = argv.index("run") + 1
            args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
        if args.experiment is None:
            raise UsageError("--experiment is required (flag or config file)")
        if args.out is None:
            raise UsageError("--out is required (flag or config file)")
        return _cmd_run(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
