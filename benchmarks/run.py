"""End-to-end benchmark of the adgd library, with a traced run per layer.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sphere-com --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload bw-lyapunov-diag --seed 1 --seconds 10 --trace 1
    python3 benchmarks/run.py --workload bw-lyapunov-n100 --seed 1 --smoke

The benchmark drives the public library API the way ``adgd-bench run``
does: a ``problems`` generator builds an instance (with its exact or
reference optimum), ``adgd_run``/``armijo_run`` solve it, ``diagnostics``
summarizes the trace and ``trace_io.render_trace`` renders its CSV.  It
imports the library from ``src/`` next to this directory and nothing else.

An *op* is one optimizer run on one instance, from ``x0`` to its stop,
followed by the diagnostics and CSV rendering of its trace.  A *pass*
runs every op of the workload once on every instance; it is the fixed
amount of work.  A run builds the instances (instance seeds derive from
``--seed``), then repeats passes while the next one fits in ``--seconds``,
and never fewer than two, because every op is checked against a repeat
of itself.  Every op passes a correctness gate (see :func:`gate`); an op
that fails it, raises or aborts counts in ``failed``.

Times are measured with ``time.perf_counter`` and reported scaled to a
reference machine speed (see ``CALIBRATION_REF_S`` and
:class:`MachineClock`): a fixed calibration kernel is timed right before,
during and right after every op and instance build.
Each op is timed by the median of its repeats, ``wall_s`` is the sum of
those over one pass, and ``setup_s`` is the median instance build.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (at most five pairs), reports the per-layer
metrics of the instance builds plus the first traced pass, and writes
every span to ``benchmarks/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the environment, every metric with its unit, and the failure ratio.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import adgd
    from adgd import diagnostics, optimizers, problems, trace_io
    from adgd.manifolds import BuresWasserstein, Sphere
except ImportError as exc:
    sys.exit(f"error: cannot import the adgd library from {SRC}: {exc}")
if not Path(adgd.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported adgd from {adgd.__file__}, not from {SRC}")

import tracing  # noqa: E402  (needs adgd on the path)

MIN_PASSES = 2
MAX_TRACED_PAIRS = 5
RATE_CHECKPOINTS = (10, 100, 1000)

# Acceptance tolerances, verbatim from tests/test_acceptance.py.
GAP_RTOL = 1e-8  # |phi - phi*| <= 1e-8 * max(1, |phi*|)
RADIUS_SLACK = 1e-6  # criterion 2
ENERGY_SLACK = 1e-7  # criterion 2
RATE_SLACK = 1e-7  # criterion 3
LYAPUNOV_RESIDUAL = 1e-6  # criterion 6

# Speed of this kind of machine drifts by up to 2x over minutes as other
# tenants load the host, and CPU time drifts with wall time.  A fixed
# kernel timed between ops drifts with it: over 75 s on a 2-vCPU VM the
# spread of 3 s medians was 0.27 for a sphere op and 0.32 for a Jacobi
# eigensolve, and about 0.05 for their ratios to the kernel.  Reported
# times are therefore scaled to the speed at which the kernel takes
# CALIBRATION_REF_S; raw times are printed too.
CALIBRATION_REF_S = 0.002
CALIBRATION_INTERVAL_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "adgd.op_s.p50": "s",
    "armijo.op_s.p50": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class OpSpec:
    """One optimizer run: ``adgd`` or ``armijo`` with its RunConfig fields."""

    optimizer: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # "center-of-mass" or "lyapunov"
    n: int
    instances: int
    ops: tuple
    points: int = 50  # center-of-mass only
    lyapunov_checks: bool = False

    def build(self, seed):
        if self.experiment == "center-of-mass":
            return Sphere(), problems.center_of_mass(self.n, self.points, seed)
        return BuresWasserstein(), problems.lyapunov_objective(self.n, seed)


def _adgd(**config):
    return OpSpec("adgd", config)


def _armijo(**config):
    return OpSpec("armijo", dict(config, armijo_lambda=2.0))


# Why each workload is here is recorded in BENCHMARK.json.  Op times differ
# by up to +-25% between instances, so each workload has as many instances
# as its run length allows; the median over them is what steadies op_s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere-com", "center-of-mass", n=10, instances=3,
            ops=(
                _adgd(max_iters=1000, tol=0.0, alpha0=0.05),
                _armijo(max_iters=1000, tol=0.0, alpha0=0.05),
            ),
        ),
        Workload(
            "bw-lyapunov-diag", "lyapunov", n=20, instances=14,
            ops=(
                _adgd(max_iters=1000, tol=1e-10, alpha0=0.1),
                _armijo(max_iters=100, tol=1e-10, alpha0=0.1, track_distance=False),
            ),
        ),
        Workload(
            "bw-lyapunov-n100", "lyapunov", n=100, instances=3,
            ops=(
                _adgd(max_iters=1000, tol=1e-10, alpha0=0.1, track_distance=False),
                _armijo(max_iters=100, tol=1e-10, alpha0=0.1, track_distance=False),
            ),
            lyapunov_checks=True,
        ),
    )
}

# Same code paths at tiny size, for the self-test.  Armijo converges more
# slowly on some tiny instances, hence its larger budget here.
SMOKE = {
    "sphere-com": Workload(
        "sphere-com", "center-of-mass", n=4, instances=1, points=8,
        ops=(_adgd(max_iters=50, tol=0.0, alpha0=0.05), _armijo(max_iters=50, tol=0.0, alpha0=0.05)),
    ),
    "bw-lyapunov-diag": Workload(
        "bw-lyapunov-diag", "lyapunov", n=4, instances=1,
        ops=(
            _adgd(max_iters=1000, tol=1e-10, alpha0=0.1),
            _armijo(max_iters=1000, tol=1e-10, alpha0=0.1, track_distance=False),
        ),
    ),
    "bw-lyapunov-n100": Workload(
        "bw-lyapunov-n100", "lyapunov", n=6, instances=1,
        ops=(
            _adgd(max_iters=1000, tol=1e-10, alpha0=0.1, track_distance=False),
            _armijo(max_iters=1000, tol=1e-10, alpha0=0.1, track_distance=False),
        ),
        lyapunov_checks=True,
    ),
}


def _calibration_work(m):
    # Python arithmetic (about a third of the time) plus small-array numpy
    # updates: interpreter-bound sphere ops and numpy-bound Jacobi sweeps
    # slow down by about as much as this mix does.  It uses no adgd code,
    # so no change to the library changes it.
    total = 0
    for i in range(12000):
        total += i * i
    x = m.copy()
    for i in range(300):
        p, q = i % 20, (i * 7) % 20
        xp = x[:, p].copy()
        x[:, p] = 0.6 * xp - 0.8 * x[:, q]
        x[:, q] = 0.8 * xp + 0.6 * x[:, q]
    return total, x


class MachineClock:
    """Times one piece of work at a time and scales it to the reference speed.

    The calibration kernel runs right before and right after the work and,
    from a SIGALRM handler, every ``CALIBRATION_INTERVAL_S`` during it; the
    work is timed without the handler's time, then scaled by the mean of
    all those samples.  Use as ``clock.start(); ...; clock.stop()``.
    """

    def __init__(self):
        self._m = np.random.default_rng(0).standard_normal((20, 20))
        self._sample()  # warm-up
        self._samples = []
        self._stolen = 0.0
        self._t0 = None

    def _sample(self):
        t0 = time.perf_counter()
        _calibration_work(self._m)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(self._sample())
        self._stolen += time.perf_counter() - t0

    def start(self):
        self._samples = [self._sample()]
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self):
        """(raw seconds, scaled seconds) of the work since :meth:`start`."""
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        seconds = elapsed - self._stolen
        self._samples.append(self._sample())
        return seconds, seconds * CALIBRATION_REF_S / statistics.fmean(self._samples)


@dataclass
class Instance:
    seed: int
    manifold: object
    problem: object
    phi_star: float
    build_s: float
    build_scaled: float


@dataclass
class OpRecord:
    key: tuple  # (instance index, op index); repeats of one op share it
    optimizer: str
    seconds: float
    scaled: float
    iters: int
    fn_evals: int
    exp_evals: int
    expensive_ops: int
    clamped_rows: int
    csv_bytes: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def instance_seeds(workload, seed):
    entropy = [seed, zlib.crc32(workload.name.encode())]
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(workload.instances)]


def build_instances(workload, seed, tracer, clock):
    out = []
    for i, inst_seed in enumerate(instance_seeds(workload, seed)):
        clock.start()
        try:
            with tracer.op("setup", -(i + 1)):
                manifold, problem = workload.build(inst_seed)
        finally:
            build_s, build_scaled = clock.stop()
        out.append(Instance(inst_seed, manifold, problem, problem.optimum_value,
                            build_s, build_scaled))
    return out


def _meta(workload, spec, config, inst, trace):
    # The metadata line ``adgd-bench run`` writes for the same run.
    return {
        "experiment": workload.experiment,
        "optimizer": spec.optimizer,
        "n": workload.n,
        "seed": inst.seed,
        "max_iters": config.max_iters,
        "tol": config.tol,
        "alpha0": config.alpha0,
        "first_ls": config.first_ls,
        "armijo_c": config.armijo_c,
        "armijo_beta": config.armijo_beta,
        "armijo_lambda": config.armijo_lambda,
        "fixed_alpha": None,
        "phi_star": inst.phi_star,
        "status": trace.status,
    }


def run_op(workload, spec, inst):
    """One op; returns (trace, diagnostics dict, CSV text)."""
    config = optimizers.RunConfig(**spec.config)
    run = optimizers.adgd_run if spec.optimizer == "adgd" else optimizers.armijo_run
    trace = run(config, inst.manifold, inst.problem)
    diag = {"step_floor": diagnostics.step_floor_bound(trace)}
    if spec.optimizer == "adgd" and trace.rows[0].dist_to_opt is not None:
        diag["radius"] = diagnostics.radius(trace)
        diag["energy"] = diagnostics.energy_sequence(trace, inst.phi_star)
        diag["rate"] = diagnostics.rate_gap_bounds(trace, inst.phi_star, RATE_CHECKPOINTS)
    text = trace_io.render_trace(trace, _meta(workload, spec, config, inst, trace))
    return trace, diag, text


def gate(workload, inst, trace, diag, text, repeat_text):
    """Reasons the op failed; empty when it passed.

    Armijo is judged by its gap, not its status: at the floating-point
    floor its gradient norm stalls above ``tol`` and it stops at max-iters.
    """
    bad = []
    if trace.status == optimizers.STATUS_ABORTED:
        bad.append(f"aborted: {trace.message}")
    gap = abs(trace.rows[-1].phi - inst.phi_star)
    if not gap <= GAP_RTOL * max(1.0, abs(inst.phi_star)):
        bad.append(f"gap {gap:.3e} to phi* = {inst.phi_star!r}")
    if "radius" in diag:
        dists = np.array([r.dist_to_opt for r in trace.rows])
        if not dists.max() <= diag["radius"] + RADIUS_SLACK:
            bad.append(f"radius bound broken by {dists.max() - diag['radius']:.3e}")
        if not np.all(np.diff(diag["energy"]) <= ENERGY_SLACK):
            bad.append(f"energy rose by {np.diff(diag['energy']).max():.3e}")
        if not all(g <= b + RATE_SLACK for g, b in diag["rate"]):
            bad.append(f"rate bound broken: {diag['rate']}")
    if workload.lyapunov_checks:
        a, c = inst.problem.extras["A"], inst.problem.extras["C"]
        x = trace.final_point
        resid = np.linalg.norm(a @ x + x @ a - c) / np.linalg.norm(c)
        if not resid <= LYAPUNOV_RESIDUAL:
            bad.append(f"Lyapunov residual {resid:.3e}")
        try:
            np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            bad.append("final iterate is not SPD")
    if repeat_text is not None and text != repeat_text:
        bad.append("CSV differs from a repeat of the same op")
    return bad


def run_pass(workload, instances, csv_texts, tally, tracer, clock, first_op_id=0):
    """Run every op once on every instance.

    ``csv_texts`` maps (instance, op) to the CSV of an earlier repeat; the
    first pass fills it.  Returns an :class:`OpRecord` per op that ran.
    """
    records = []
    op_id = first_op_id
    for i, inst in enumerate(instances):
        for j, spec in enumerate(workload.ops):
            tally.attempted += 1
            clock.start()
            try:
                try:
                    with tracer.op("op", op_id):
                        trace, diag, text = run_op(workload, spec, inst)
                finally:
                    seconds, scaled = clock.stop()
                bad = gate(workload, inst, trace, diag, text, csv_texts.get((i, j)))
            except Exception:  # an op that raises is a failed op; keep measuring
                bad = [traceback.format_exc()]
            else:
                csv_texts.setdefault((i, j), text)
                last = trace.rows[-1]
                records.append(OpRecord(
                    (i, j), spec.optimizer, seconds, scaled, last.k, last.fn_evals, last.exp_evals,
                    last.expensive_ops, sum(r.clamped for r in trace.rows), len(text.encode()),
                ))
            if bad:
                tally.failed += 1
                print(f"FAILED op {workload.name} instance-seed={inst.seed} "
                      f"{spec.optimizer}: {'; '.join(bad)}", file=sys.stderr)
            op_id += 1
    return records


def per_op(passes, attr):
    """{(instance, op): (optimizer, median seconds over repeats, iterations)}."""
    repeats = {}
    for records in passes:
        for r in records:
            repeats.setdefault(r.key, []).append(r)
    return {
        key: (recs[0].optimizer, statistics.median(getattr(r, attr) for r in recs), recs[0].iters)
        for key, recs in repeats.items()
    }


def end_to_end_metrics(instances, passes, attr="scaled"):
    """End-to-end metrics of the untraced passes from the ``scaled`` or raw
    (``seconds``) op times.  Each op is timed by the median of its repeats;
    ``wall_s`` is one pass, the sum of those."""
    ops = per_op(passes, attr).values()
    adgd_s = [s for opt, s, _ in ops if opt == "adgd"]
    armijo_s = [s for opt, s, _ in ops if opt == "armijo"]
    wall_s = sum(s for _, s, _ in ops)
    build = "build_scaled" if attr == "scaled" else "build_s"
    metrics = {
        "setup_s": statistics.median(getattr(inst, build) for inst in instances),
        "wall_s": wall_s,
        "adgd.op_s.p50": statistics.median(adgd_s),
        "armijo.op_s.p50": statistics.median(armijo_s),
        "iters_per_s": sum(k for _, _, k in ops) / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(instances), "wall_s": len(passes),
        "adgd.op_s.p50": len(adgd_s), "armijo.op_s.p50": len(armijo_s),
    }
    return metrics, counts


def p90_lines(passes):
    lines = []
    for label in ("adgd", "armijo"):
        samples = [r.scaled for records in passes for r in records if r.optimizer == label]
        if len(samples) >= 100:  # ten samples beyond the 90th percentile
            p90 = statistics.quantiles(samples, n=10)[-1]
            lines.append(f"metric {label}.op_s.p90 {p90} s  (n={len(samples)}, every repeat)")
    return lines


def layer_metrics(tracer, instances, traced, untraced, first_traced_ops):
    metrics = tracing.span_metrics(tracer, first_traced_ops, len(instances))
    records = traced[0]
    armijo = [r for r in records if r.optimizer == "armijo"]
    metrics.update({
        "optimizers.iters": sum(r.iters for r in records),
        "optimizers.fn_evals": sum(r.fn_evals for r in records),
        "optimizers.exp_evals": sum(r.exp_evals for r in records),
        "optimizers.expensive_ops": sum(r.expensive_ops for r in records),
        "optimizers.clamped_rows": sum(r.clamped_rows for r in records),
        # Every Armijo iteration accepts exactly one exp trial.
        "optimizers.armijo.accept_ratio": tracing.ratio(
            sum(r.iters for r in armijo), sum(r.exp_evals for r in armijo)
        ),
        "trace_io.bytes": sum(r.csv_bytes for r in records),
        "trace.overhead_ratio": sum(s for _, s, _ in per_op(traced, "scaled").values())
        / sum(s for _, s, _ in per_op(untraced, "scaled").values()),
    })
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "trace_io.bytes":
        return "B"
    return "count"


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "workload_seed": seed,
    }


def measure(workload, seed, seconds, traced):
    """Run the benchmark; returns (result dict, lines to print before it)."""
    tracer = tracing.Tracer()
    clock = MachineClock()
    tally = Tally()
    csv_texts = {}
    if traced:
        with tracer.recording():
            instances = build_instances(workload, seed, tracer, clock)
    else:
        instances = build_instances(workload, seed, tracer, clock)
    ops_per_pass = len(instances) * len(workload.ops)

    start = time.perf_counter()
    untraced, traced_passes = [], []
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(workload, instances, csv_texts, tally, tracer, clock))
        if traced:
            with tracer.recording():
                first = len(traced_passes) * ops_per_pass
                traced_passes.append(
                    run_pass(workload, instances, csv_texts, tally, tracer, clock, first)
                )
        step = time.perf_counter() - t0
        if traced and len(traced_passes) >= MAX_TRACED_PAIRS:
            break
        done = len(untraced) + len(traced_passes)
        if done >= MIN_PASSES and time.perf_counter() - start + step > seconds:
            break

    if traced:
        metrics = layer_metrics(tracer, instances, traced_passes, untraced, range(ops_per_pass))
        units = {name: layer_unit(name) for name in metrics}
        counts = {}
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        lines = [f"spans {len(tracer)} written to {spans_path.relative_to(ROOT)}",
                 f"traced passes {len(traced_passes)}, untraced passes {len(untraced)}"]
    else:
        metrics, counts = end_to_end_metrics(instances, untraced)
        units = END_TO_END
        lines = [f"passes {len(untraced)}, instances {len(instances)}, "
                 f"ops per pass {ops_per_pass}"]
    for name, value in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        lines.append(f"metric {name} {value} {units[name]}{n}")
    if not traced:
        lines += p90_lines(untraced)
        raw, _ = end_to_end_metrics(instances, untraced, attr="seconds")
        lines += [f"raw {name} {value} {units[name]}" for name, value in raw.items()]
    lines.append(f"fail_ratio {tally.failed / tally.attempted} "
                 f"({tally.failed} of {tally.attempted} ops)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; at least two passes always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true", help="tiny instances (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {workload.name}: {workload.experiment} n={workload.n}, "
          f"instance seeds {instance_seeds(workload, args.seed)}")
    result, lines = measure(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
