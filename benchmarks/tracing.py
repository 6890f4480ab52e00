"""Span recorder for the benchmark's traced run, and the per-layer metrics.

The recorder wraps the public calls of each ``adgd`` module from the
outside (nothing under ``src/`` changes) and keeps one span per wrapped
call in flat in-memory arrays: name, start, end, parent span and op id.
Self time is a span's duration minus the durations of its children;
calls are single-threaded, so children never overlap.

A wrapped call whose caller is a span of the same name records nothing,
so ``Sphere.distance`` reached through the ``distance_from`` closure and
``diagnostics.radius`` reached through ``rate_gap_bounds`` count once.

Wrappers stay installed only inside :meth:`Tracer.recording`.  Problems
built while recording keep wrapped ``value``/``euclidean_grad`` closures
for life; those wrappers pass straight through while recording is off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array

import numpy as np

from adgd import diagnostics, linalg, optimizers, problems, trace_io
from adgd.manifolds import BuresWasserstein, Sphere

_MISSING = object()

# (module, attribute, span name) for plain module functions.
_MODULE_CALLS = [
    (linalg, "sym_eig", "linalg.sym_eig"),
    (linalg, "cholesky", "linalg.cholesky"),
    (linalg, "solve_lyapunov", "linalg.solve_lyapunov"),
    (linalg, "spd_sqrt", "linalg.spd_sqrt"),
    (problems, "center_of_mass", "problems.build"),
    (problems, "lyapunov_objective", "problems.build"),
    (problems, "fixed_step_reference", "problems.reference"),
    (diagnostics, "energy_sequence", "diagnostics"),
    (diagnostics, "radius", "diagnostics"),
    (diagnostics, "rate_gap_bounds", "diagnostics"),
    (diagnostics, "step_floor_bound", "diagnostics"),
    (trace_io, "render_trace", "trace_io.render"),
    (optimizers, "adgd_run", "optimizers.run"),
    (optimizers, "armijo_run", "optimizers.run"),
]

# Manifold method -> span name; ``norm`` and ``grad_diff_norm_sq`` reach
# the metric through ``inner``.
_MANIFOLD_METHODS = {
    "exp": "manifolds.exp",
    "transport_along_step": "manifolds.transport",
    "egrad_to_rgrad": "manifolds.egrad_to_rgrad",
    "inner": "manifolds.metric",
    "max_step": "manifolds.max_step",
    "max_step_lower_bound": "manifolds.max_step_lower_bound",
    "distance": "manifolds.distance",
}

_MANIFOLD_CLASSES = (Sphere, BuresWasserstein)


class Tracer:
    """In-memory spans of wrapped library calls."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("h")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self.enabled = False
        self._stack = []
        self._op_id = -1
        self._saved = []

    def __len__(self):
        return len(self._start)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self._op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        """``fn`` recording one span per call while recording is on."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if not self.enabled or (stack and self._name[stack[-1]] == nid):
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def op(self, name, op_id):
        """Root span of one op (``op_id >= 0``) or one instance build
        (``op_id < 0``); every span opened inside carries ``op_id``."""
        if not self.enabled:
            yield
            return
        self._op_id = op_id
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers and record spans until the block exits."""
        self._install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self._uninstall()

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def _install(self):
        for module, attr, name in _MODULE_CALLS:
            self._patch(module, attr, self.wrap(name, getattr(module, attr)))
        for cls in _MANIFOLD_CLASSES:
            for attr, name in _MANIFOLD_METHODS.items():
                self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))
            self._patch(cls, "distance_from", self._wrap_distance_from(cls.distance_from))
        self._patch(problems, "Problem", self._traced_problem_class())

    def _uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def _wrap_distance_from(self, distance_from):
        @functools.wraps(distance_from)
        def traced(manifold, y):
            return self.wrap("manifolds.distance", distance_from(manifold, y))

        return traced

    def _traced_problem_class(self):
        tracer = self

        @dataclasses.dataclass
        class TracedProblem(problems.Problem):
            def __post_init__(self):
                self.value = tracer.wrap("problems.value", self.value)
                self.euclidean_grad = tracer.wrap("problems.grad", self.euclidean_grad)

        return TracedProblem

    def arrays(self):
        """(name id, start, end, parent index, op id) per span, as numpy arrays."""
        return (
            np.array(self._name, dtype=np.int16),
            np.array(self._start, dtype=float),
            np.array(self._end, dtype=float),
            np.array(self._parent, dtype=np.int32),
            np.array(self._op, dtype=np.int32),
        )

    def save(self, path):
        """Write every span out as ``.npz`` arrays."""
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, op=op)


def ratio(num, den):
    return num / den if den else 0.0


def span_metrics(tracer, op_ids, n_instances):
    """Per-layer metrics from the spans of every instance build plus the
    ops in ``op_ids`` (one traced pass).

    ``problems.build.self_s`` and ``problems.reference.*`` are per instance
    build; every other count and self time covers the builds and the pass.
    """
    name, start, end, parent, op = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    keep = (op < 0) | np.isin(op, list(op_ids))

    def nid(label):
        return tracer.names.index(label) if label in tracer.names else -1

    def calls(label):
        return int(np.count_nonzero(keep & (name == nid(label))))

    def self_time(label):
        return float(np.sum(self_s[keep & (name == nid(label))]))

    def subtree_end(idx):
        # Spans are stored in start order, so a span's descendants are the
        # spans after it that start before it ends.
        return int(np.searchsorted(start, end[idx], side="left"))

    out = {}
    for kernel in ("sym_eig", "cholesky", "solve_lyapunov", "spd_sqrt"):
        out[f"linalg.{kernel}.calls"] = calls(f"linalg.{kernel}")
        out[f"linalg.{kernel}.self_s"] = self_time(f"linalg.{kernel}")
    for label in _MANIFOLD_METHODS.values():
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.self_s"] = self_time(label)

    # A Gershgorin screen failed when the clamp's next call, at the same
    # level, is the exact max_step.
    screens = np.flatnonzero(keep & (name == nid("manifolds.max_step_lower_bound")))
    max_step_id = nid("manifolds.max_step")
    failed = 0
    for idx in screens:
        nxt = subtree_end(idx)
        if nxt < len(name) and name[nxt] == max_step_id and parent[nxt] == parent[idx]:
            failed += 1
    out["manifolds.screen_pass_ratio"] = ratio(len(screens) - failed, len(screens))

    out["problems.build.self_s"] = self_time("problems.build") / n_instances
    out["problems.reference.self_s"] = self_time("problems.reference") / n_instances
    exp_id = nid("manifolds.exp")
    ref_iters = sum(
        int(np.count_nonzero(name[idx + 1 : subtree_end(idx)] == exp_id))
        for idx in np.flatnonzero(keep & (name == nid("problems.reference")))
    )
    out["problems.reference.iters"] = ref_iters / n_instances
    for label in ("problems.value", "problems.grad"):
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.self_s"] = self_time(label)
    out["optimizers.run.self_s"] = self_time("optimizers.run")
    out["diagnostics.calls"] = calls("diagnostics")
    out["diagnostics.self_s"] = self_time("diagnostics")
    out["trace_io.render.calls"] = calls("trace_io.render")
    out["trace_io.render.self_s"] = self_time("trace_io.render")
    return out
