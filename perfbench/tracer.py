"""Span tracing and semifield call counting for the traced benchmark run.

The package imports functions by name (``from .linalg import mat_vec_mul``),
so a wrapper only sees the calls made through the namespace it is installed
in. Every wrapper therefore goes into the module that makes the call, for
example ``tropfit.solvers.mat_vec_mul`` for the products inside the solvers.
Nothing is installed while tracing is off: the untraced run executes the
package exactly as shipped.

Spans are kept in memory, one flat buffer per thread, and are written out
once at the end of the run. ``random_search`` fits its draws in pool
threads whose own stacks are empty, so a root span on a pool thread takes
the innermost open span of the benchmark thread as its parent.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from tropfit import approx, cli, search, semifield, solvers


def _product_ops(name):
    """Tropical multiply-adds of one product call, from its operand shapes."""
    if name == "mat_vec_mul":
        return lambda args: args[0].rows * args[0].cols
    if name == "vec_mat_mul":
        return lambda args: args[1].rows * args[1].cols
    if name == "dot":
        return lambda args: len(args[0])
    return lambda args: args[0].rows * args[0].cols * args[1].cols


_TERMINATION = {"exact-solution": "exact", "cycle-detected": "cycle",
                "iteration-cap": "cap"}


def _count_two_sided(counts, args, result):
    counts["solvers.two_sided_solve.half_steps"] += result.iterations
    kind = _TERMINATION[result.termination.value]
    counts["solvers.two_sided_solve.termination." + kind] += 1


def _count_draws(counts, args, result):
    counts["search.draws"] += result.samples_evaluated


# (module the call is made from, attribute, span name, kind). The kind
# selects the extra bookkeeping: "product" adds computed operations,
# "draw" marks a fit made by random_search, "two_sided" and "search" read
# half-steps, termination and draws from the result.
WRAPPED = (
    (solvers, "mat_vec_mul", "linalg.mat_vec_mul", "product"),
    (solvers, "vec_mat_mul", "linalg.vec_mat_mul", "product"),
    (solvers, "dot", "linalg.dot", "product"),
    (solvers, "conjugate", "linalg.conjugate", None),
    (solvers, "scale", "linalg.scale", None),
    (approx, "mat_mul", "linalg.mat_mul", "product"),
    (approx, "distance", "linalg.distance", None),
    (approx, "one_sided_solve", "solvers.one_sided_solve", None),
    (approx, "two_sided_solve", "solvers.two_sided_solve", "two_sided"),
    (approx, "build_poly_matrix", "approx.build_poly_matrix", None),
    (approx, "_check_rational_error", "approx.post_check", None),
    (approx, "eval_polynomial", "approx.eval_polynomial", None),
    (approx, "eval_rational", "approx.eval_rational", None),
    # Called by the rational-fit workload through the approx module.
    (approx, "fit_rational", "approx.fit_rational", None),
    (search, "fit_polynomial", "approx.fit_polynomial", "draw"),
    (search, "fit_rational", "approx.fit_rational", "draw"),
    (search, "sample_degree_vector", "search.sample_degree_vector", None),
    # Called by the poly-search workload through the search module.
    (search, "random_search", "search.random_search", "search"),
    (cli, "fit_polynomial", "approx.fit_polynomial", None),
    (cli, "fit_rational", "approx.fit_rational", None),
    (cli, "eval_polynomial", "approx.eval_polynomial", None),
    (cli, "eval_rational", "approx.eval_rational", None),
    (cli, "parse_samples", "cli.parse_samples", None),
    (cli, "serialize_model", "cli.serialize_model", None),
    (cli, "parse_model", "cli.parse_model", None),
    (cli, "parse_grid", "cli.parse_grid", None),
    (cli, "cmd_fit", "cli.cmd_fit", None),
    (cli, "cmd_eval", "cli.cmd_eval", None),
)

COUNTED_METHODS = (
    (semifield.Semifield, ("add", "leq", "sqrt")),
    (semifield.MaxPlus, ("mul", "inv", "pow", "is_one")),
    (semifield.MaxTimes, ("mul", "inv", "pow", "is_one")),
)

def _attributes() -> dict:
    """Every attribute either pass may replace, keyed by (owner, name)."""
    found = {(mod.__name__, attr): getattr(mod, attr)
             for mod, attr, _, _ in WRAPPED}
    found.update({(cls.__qualname__, m): cls.__dict__[m]
                  for cls, methods in COUNTED_METHODS for m in methods})
    return found


#: The object each attribute must hold whenever no pass is active.
ORIGINALS = _attributes()


def replaced() -> list[str]:
    """Names of wrapped attributes that do not hold the original object."""
    return [".".join(key) for key, obj in _attributes().items()
            if obj is not ORIGINALS[key]]


class _Buffer:
    """Spans and counts recorded by one thread."""

    __slots__ = ("stack", "spans", "counts", "draws")

    def __init__(self):
        self.stack: list[int] = []
        # Five doubles per span: name id, span id, parent id, start, end.
        self.spans = array("d")
        self.counts: Counter = Counter()
        # (random_search span id, degree class) of every draw fitted.
        self.draws: list = []


class SpanTracer:
    """Installs span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.names = sorted({name for _, _, name, _ in WRAPPED})
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._root = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name, kind):
        name_id = float(self.names.index(name))
        local, ids, perf = self._local, self._ids, time.perf_counter
        cpu = time.thread_time
        root_stack, new_buffer = self._root.stack, self._buffer
        ops = _product_ops(fn.__name__) if kind == "product" else None
        after = {"two_sided": _count_two_sided, "search": _count_draws}.get(kind)

        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else -1)
            sid = next(ids)
            if ops is not None:
                buf.counts["linalg.products.computed_ops"] += ops(args)
            if kind == "draw":
                den = args[2] if len(args) > 2 else None
                buf.draws.append((parent, args[1], den))
            stack.append(sid)
            cpu_start = cpu() if kind == "draw" else 0.0
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if kind == "draw":
                    buf.counts["search.failed_draws." + type(exc).__name__] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                buf.spans.extend((name_id, sid, parent, start, end))
                if kind == "draw":
                    # Wall time of a draw on a pool thread includes waiting
                    # for the interpreter lock; its CPU time does not.
                    buf.counts["search.draw_cpu_s"] += cpu() - cpu_start
            if after is not None:
                after(buf.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for mod, attr, name, kind in WRAPPED:
            setattr(mod, attr, self._wrap(ORIGINALS[mod.__name__, attr],
                                          name, kind))
        return self

    def __exit__(self, *exc):
        for mod, attr, _, _ in WRAPPED:
            setattr(mod, attr, ORIGINALS[mod.__name__, attr])
        return False

    def table(self) -> np.ndarray:
        """All spans as rows of (name id, span id, parent id, start, end, thread)."""
        parts = []
        for thread_no, buf in enumerate(self._buffers):
            rows = np.frombuffer(buf.spans, dtype=float).reshape(-1, 5)
            parts.append(np.column_stack([rows, np.full(len(rows), thread_no)]))
        return np.concatenate(parts) if parts else np.empty((0, 6))

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total

    def draws(self) -> list:
        return [d for buf in self._buffers for d in buf.draws]

    def write(self, path: Path) -> None:
        """Save the spans and the name table as an uncompressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), names=np.array(self.names))


def self_times(table: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time covered by its child spans.

    Children on pool threads can overlap, so covered time is the length of
    the union of the child intervals, not their sum.
    """
    sid = table[:, 1].astype(np.int64)
    parent = table[:, 2].astype(np.int64)
    start, end = table[:, 3], table[:, 4]
    covered: dict[int, float] = {}
    order = np.lexsort((start, parent))
    last_parent, reach = None, 0.0
    for p, s, e in zip(parent[order].tolist(), start[order].tolist(),
                       end[order].tolist()):
        if p < 0:
            continue
        if p != last_parent:
            last_parent, reach = p, -np.inf
        if e > reach:
            covered[p] = covered.get(p, 0.0) + e - max(s, reach)
            reach = e
    own = np.array([covered.get(i, 0.0) for i in sid.tolist()])
    return end - start - own


class MethodCounter:
    """Counts calls to the semifield methods for the duration of a block."""

    def __init__(self):
        self._counters = {}
        self.totals: Counter = Counter()

    def __enter__(self):
        for cls, methods in COUNTED_METHODS:
            for m in methods:
                counter = itertools.count()
                self._counters[cls.__qualname__, m] = counter
                setattr(cls, m, _counting(ORIGINALS[cls.__qualname__, m], counter))
        return self

    def __exit__(self, *exc):
        for cls, methods in COUNTED_METHODS:
            for m in methods:
                setattr(cls, m, ORIGINALS[cls.__qualname__, m])
        # Calls per method name, summed over the classes; next() returns
        # how many calls a counter has seen.
        for (_, m), counter in self._counters.items():
            self.totals[m] += next(counter)
        return False


def _counting(fn, counter):
    # next() on itertools.count is a single C call, so the count stays
    # exact when pool threads call concurrently.
    tick = counter.__next__

    def wrapper(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper
