"""Span tracer that times remsense layers from outside the package.

``Tracer`` replaces each traced function at every name a caller looks
it up by (a module attribute or a class attribute) with a wrapper that
records a span and a few counts, and puts the originals back on exit.
The program itself is not changed.

A span's self time is its duration minus the part of that interval its
child spans cover.  Spans nest per thread; a span opened on a thread
with no open span (an evaluation worker thread) is a child of the span
open on the thread that entered the tracer, so the evaluation's own
self time excludes the work its worker threads did.  A call into the
same layer from inside that layer's span is not a new span (for
example ``semivariogram_at`` calling ``correlation_at``).
"""

import contextlib
import importlib
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


def _rows(value):
    return int(np.size(value))


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``key`` names the layer; ``owner`` and ``attr`` locate the original
    (a module path, or ``module:Class`` for a method).  A module-level
    function is replaced under every name a ``remsense`` module holds it
    by (aliases included), or only in the modules listed in ``only``.
    ``count(args, result)`` returns the counts to add for one call; with
    ``before`` set, ``count(args, result, before(args))`` is called
    instead, for counts that are differences across the call.
    """

    key: str
    owner: str
    attr: str
    count: object = None
    only: tuple = ()
    before: object = None


def _solve_k(args, result):
    k = int(np.shape(args[0])[0])
    return {"k_sum": k, "k_max": k}


def _table_pairs(args, table):
    return {"pairs_used": int(table.n_pairs_used),
            "pairs_total": int(table.n_pairs_total)}


def _clamp_before(args):
    return args[0].clamp_events


def _predict_count(args, result, before):
    return {"targets": _rows(result[0]),
            "variance_clamps": args[0].clamp_events - before}


def _grid_count(args, result):
    spec = args[1]
    return {"grid_nodes": int(spec.n_rows * spec.n_cols)}


def _mc_count(args, result):
    return {"bisection_iters": int(result.iterations),
            "mc_bisection_maxed": int(not result.converged)}


TARGETS = (
    # the per-target kriging solves of the Monte-Carlo evaluation
    Target("kriging.solve", "remsense.kriging", "solve_ordinary", _solve_k,
           only=("remsense.evaluation",)),
    Target("kriging.solve", "remsense.kriging", "solve_simple", _solve_k,
           only=("remsense.evaluation",)),
    Target("kriging.predict", "remsense.kriging", "predict"),
    Target("kriging.normal_score", "remsense.kriging", "normal_score"),
    Target("shadowing.model_eval", "remsense.shadowing:CorrelationModel",
           "correlation_at", lambda a, r: {"entries": _rows(r)}),
    Target("shadowing.model_eval", "remsense.shadowing:CorrelationModel",
           "covariance_at", lambda a, r: {"entries": _rows(r)}),
    Target("shadowing.model_eval", "remsense.shadowing:CorrelationModel",
           "semivariogram_at", lambda a, r: {"entries": _rows(r)}),
    Target("shadowing.empirical_correlation", "remsense.shadowing",
           "empirical_correlation", _table_pairs),
    Target("shadowing.fit_correlation_model", "remsense.shadowing",
           "fit_correlation_model"),
    Target("shadowing.extract_sf", "remsense.shadowing", "extract_sf"),
    Target("gpr.gpr_fit", "remsense.gpr", "gpr_fit",
           lambda a, r: {"rows_max": len(r.train)}),
    Target("gpr.gpr_predict_batch", "remsense.gpr", "gpr_predict_batch",
           _predict_count, before=_clamp_before),
    Target("gpr.estimate_hyperparameters", "remsense.gpr",
           "estimate_hyperparameters"),
    Target("completion.gpr_to_grid", "remsense.completion", "gpr_to_grid",
           _grid_count),
    Target("completion.nuclear_norm_min", "remsense.completion",
           "nuclear_norm_min", _mc_count),
    Target("completion.nuclear_norm_project", "remsense.completion",
           "nuclear_norm_project"),
    Target("completion.spline_predict", "remsense.completion:McAssistedGpr",
           "predict"),
    Target("evaluation.ingest", "remsense.evaluation", "ingest_measurements",
           lambda a, r: {"rows": len(r)}),
    Target("geo.link_geometry_batch", "remsense.geo", "link_geometry_batch",
           lambda a, r: {"rows": _rows(r[1])}),
    Target("propagation.trpl_received_power_db", "remsense.propagation",
           "trpl_received_power_db", lambda a, r: {"rows": _rows(r)}),
    Target("propagation.trpl_received_power_db", "remsense.propagation",
           "calibrated_received_power_db", lambda a, r: {"rows": _rows(r)}),
    Target("calibration.estimate_a_uav", "remsense.calibration",
           "estimate_a_uav"),
    Target("calibration.estimate_effective_pattern", "remsense.calibration",
           "estimate_effective_pattern"),
    Target("scenes.field_factorisation",
           "remsense.scenes:CorrelatedFieldSampler", "__init__"),
    Target("scenes.generate_campaign", "remsense.scenes", "generate_campaign"),
    Target("scenes.write_measurements_csv", "remsense.scenes",
           "write_measurements_csv"),
)

# counts combined by maximum instead of sum
MAX_COUNTS = ("k_max", "rows_max")


class _Span:
    __slots__ = ("key", "start", "children")

    def __init__(self, key, start):
        self.key = key
        self.start = start
        self.children = []


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class Tracer:
    """Collects per-layer self time, call counts and layer counts.

    Use as a context manager around the traced calls; ``span`` opens a
    span from the harness itself (for the user entry points).
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = []
        self._patches = []

    # ----------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, key):
        stack = self._stack()
        if stack and stack[-1].key == key:
            return None
        span = _Span(key, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span, counts=None):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._root_stack:
            # a worker thread's outermost span: adopt the entering thread's
            parent = self._root_stack[-1] if self._root_stack else None
        if parent is not None:
            parent.children.append((span.start, end))
        self_s = (end - span.start) - _covered(span.children)
        with self._lock:
            st = self.stats.setdefault(span.key, {"calls": 0, "s": 0.0})
            st["calls"] += 1
            st["s"] += self_s
            for name, value in (counts or {}).items():
                if name in MAX_COUNTS:
                    st[name] = max(st.get(name, 0), value)
                else:
                    st[name] = st.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, key):
        """A span opened by the harness, around a user entry point."""
        span = self._open(key)
        try:
            yield
        finally:
            if span is not None:
                self._close(span)

    # -------------------------------------------------------- patching

    def _wrap(self, target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(target.key)
            if span is None:
                return fn(*args, **kwargs)
            before = target.before(args) if target.before else None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, {"raised": 1})
                raise
            counts = None
            if target.count is not None:
                counts = (target.count(args, result, before)
                          if target.before else target.count(args, result))
            tracer._close(span, counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.attr)
        return wrapper

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def __enter__(self):
        self._local.stack = self._root_stack
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "remsense" or name.startswith("remsense.")]
        for target in self.targets:
            owner, _, cls = target.owner.partition(":")
            home = importlib.import_module(owner)
            if cls:
                klass = getattr(home, cls)
                self._patch(klass, target.attr,
                            self._wrap(target, klass.__dict__[target.attr]))
                continue
            original = getattr(home, target.attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                if target.only and module.__name__ not in target.only:
                    continue
                for name, value in list(module.__dict__.items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()
        self._local.stack = None
        return False
