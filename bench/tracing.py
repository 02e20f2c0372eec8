"""Spans around the public functions of the irjbd modules, installed from outside.

The solver modules import one another's functions by name, so a function can
be bound in several namespaces: ``lsqr_solve`` is bound in ``stackedls``,
``jbd`` and ``driver``, and ``irjbd_solve`` in ``driver`` and the package.
Installing the trace therefore replaces each function in every loaded irjbd
namespace that binds it, and wraps the kernel methods on their classes
(``SparseMatrix.matvec``/``matvec_transpose`` and
``StackedOperator.apply``/``apply_transpose``).  Uninstalling restores the
originals.  No solver file changes.

Each call records one span: ``(span_id, parent_id, name, solve_id, start,
end, cost)``.  The parent is the innermost traced call still running (0 for
none), and every span below one top-level call shares that call's solve id.
``cost`` is the wrapper's own time outside ``start``-``end`` (its
bookkeeping and count hooks), which runs inside the parent's span.  A span's
self time is its duration minus, for each direct child, the child's duration,
its cost and the calibrated cost of entering and leaving a wrapper; its
inclusive time is its duration minus the costs of all spans below it.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

# layer module -> classes whose kernel methods are traced
LAYERS = {
    "sparsemat": {"SparseMatrix": ("matvec", "matvec_transpose")},
    "stackedls": {"StackedOperator": ("apply", "apply_transpose")},
    "jbd": {},
    "bidiag": {},
    "restart": {},
    "shifts": {},
    "driver": {},
}

# bytes per float64 value and per int64 index of the SparseMatrix storage
_VALUE_BYTES = 8
_INDEX_BYTES = 8

CALIBRATION_CALLS = 2000


def computed_bytes(nnz, nrows, ncols):
    """Compulsory traffic of one bincount product (computed, not measured).

    ``SparseMatrix.matvec`` and ``matvec_transpose`` gather and scatter
    through three arrays nnz long: the values, the column indices and the
    expanded row ids.  Each is read once, the input vector once and the
    output vector written once; cache misses and the temporaries of the
    gather are ignored.  The count is the same for M x and M.T y.
    """
    return nnz * (_VALUE_BYTES + 2 * _INDEX_BYTES) + _VALUE_BYTES * (nrows + ncols)


class Tracer:
    """Records spans and counts while installed (use as a context manager).

    ``only`` limits tracing to the named spans (such as
    ``{"stackedls.lsqr_solve"}``), which is how the untraced runs count inner
    iterations without paying for kernel spans.  ``tick``, when given, is
    called before every traced call, outside its span.
    """

    def __init__(self, package, only=None, tick=None):
        self.package = package
        self.only = only
        self.tick = tick
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self.kernel_calls = Counter()   # (span name, id(matrix)) -> calls
        self.matrices = {}              # id(matrix) -> (nnz, nrows, ncols)
        self.labels = {}                # span id -> extra row that span's time adds to
        self._stack = []
        self._next_id = 1
        self._solve_id = 0
        self._undo = []
        self.entry_cost = None          # set by the first summary()

    # -- installation ------------------------------------------------------

    def __enter__(self):
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None and (name == self.package.__name__
                                              or name.startswith(self.package.__name__ + "."))]
        for layer, classes in LAYERS.items():
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                span = f"{layer}.{fname}"
                if self.only is not None and span not in self.only:
                    continue
                wrapper = self._wrap(span, fn)
                for ns in namespaces:
                    if vars(ns).get(fname) is fn:
                        self._undo.append((ns, fname, fn))
                        setattr(ns, fname, wrapper)
            for cname, methods in classes.items():
                cls = getattr(module, cname)
                for mname in methods:
                    span = f"{layer}.{mname}"
                    if self.only is not None and span not in self.only:
                        continue
                    fn = vars(cls)[mname]
                    self._undo.append((cls, mname, fn))
                    setattr(cls, mname, self._wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()
        return False

    def _wrap(self, span, fn):
        before = _BEFORE.get(span)
        after = _AFTER.get(span)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tick = self.tick

        @wraps(fn)
        def traced(*args, **kwargs):
            if tick:
                tick()
            entered = clock()
            if not stack:
                self._solve_id += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            token = before(args) if before else None
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, span, self._solve_id, start, end,
                              start - entered))
                raise
            end = clock()
            stack.pop()
            if after:
                after(self, args, out, token, span_id)
            spans.append((span_id, parent, span, self._solve_id, start, end,
                          start - entered + clock() - end))
            return out

        return traced

    def _calibrate(self):
        """Seconds a wrapped call costs its caller beyond its span and recorded cost.

        That is the call into the wrapper and the return from it, up to the
        first clock read and from the last one.  It is timed on an empty
        function under a scratch tracer; the median of five batches is kept.
        """
        scratch = Tracer(self.package)
        empty = scratch._wrap("calibration", lambda: None)
        clock = time.perf_counter
        batches = []
        for _ in range(5):
            scratch.spans.clear()
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                empty()
            wall = clock() - start
            recorded = sum(end - begin + cost for *_, begin, end, cost in scratch.spans)
            batches.append((wall - recorded) / CALIBRATION_CALLS)
        return max(0.0, statistics.median(batches))

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds, net of tracing.

        A span labelled by a count hook also adds its inclusive seconds to
        the row of its label.
        """
        if self.entry_cost is None:
            self.entry_cost = self._calibrate()
        child = defaultdict(float)   # span id -> direct children's time, their cost included
        below = defaultdict(float)   # span id -> tracing cost of every span below it
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        # a span is appended when it ends, so its children come before it
        for span_id, parent, name, _, start, end, cost in self.spans:
            under = below.pop(span_id, 0.0)
            inclusive = end - start - under
            row = out[name]
            row["calls"] += 1
            row["s"] += inclusive
            row["self_s"] += end - start - child.pop(span_id, 0.0)
            if span_id in self.labels:
                out[self.labels[span_id]]["s"] += inclusive
            overhead = cost + self.entry_cost
            child[parent] += end - start + overhead
            below[parent] += under + overhead
        return out

    def call_counts(self):
        return dict(Counter(span[2] for span in self.spans))

    def kernel_figures(self, span):
        """Computed flops and bytes over all calls of one kernel span."""
        flops = nbytes = 0
        for (name, key), calls in self.kernel_calls.items():
            if name == span:
                nnz, nrows, ncols = self.matrices[key]
                flops += calls * 2 * nnz
                nbytes += calls * computed_bytes(nnz, nrows, ncols)
        return flops, nbytes

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span_id,parent_id,name,solve_id,start_s,end_s,cost_s\n")
            for span_id, parent, name, solve_id, start, end, cost in self.spans:
                fh.write(f"{span_id},{parent},{name},{solve_id},{start:.9f},{end:.9f},"
                         f"{cost:.9f}\n")


# -- counts recorded at the span boundaries ----------------------------------

def _after_kernel(span):
    def after(tracer, args, out, token, span_id):
        matrix = args[0]
        key = id(matrix)
        if key not in tracer.matrices:
            tracer.matrices[key] = (matrix.nnz, matrix.nrows, matrix.ncols)
        tracer.kernel_calls[span, key] += 1
    return after


def _after_lsqr(tracer, args, out, token, span_id):
    tracer.counts["stackedls.lsqr_solve.iterations"] += out.iterations
    tracer.counts["stackedls.lsqr_solve.not_converged"] += int(not out.converged)
    tracer.maxima["stackedls.lsqr_solve.iterations_max"] = max(
        tracer.maxima["stackedls.lsqr_solve.iterations_max"], out.iterations)


def _after_expand(tracer, args, out, token, span_id):
    tracer.counts["jbd.jbd_expand.steps"] += out.k - token


def _after_adaptive(tracer, args, out, token, span_id):
    tracer.counts["shifts.apply_adaptive_rule.replaced"] += int(
        np.count_nonzero(out.replaced_flags & ~args[0].replaced_flags))
    tracer.counts["shifts.apply_adaptive_rule.shifts"] += len(out)


def _after_solve(tracer, args, out, token, span_id):
    tracer.counts[f"driver.status.{out.status}"] += 1
    tracer.labels[span_id] = f"driver.irjbd_solve.{args[2].restart_mode}"


_BEFORE = {"jbd.jbd_expand": lambda args: args[0].k}

_AFTER = {
    "sparsemat.matvec": _after_kernel("sparsemat.matvec"),
    "sparsemat.matvec_transpose": _after_kernel("sparsemat.matvec_transpose"),
    "stackedls.lsqr_solve": _after_lsqr,
    "jbd.jbd_expand": _after_expand,
    "shifts.apply_adaptive_rule": _after_adaptive,
    "driver.irjbd_solve": _after_solve,
}
