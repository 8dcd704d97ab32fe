"""Spans and counts recorded from outside pinset.

:class:`Tracer` wraps the public functions and methods of pinset's
modules and patches every place that holds a reference to them: module
attributes (``from .tensor import matmul`` binds a second name in
``blocks``, ``models``, ``train`` and ``verify``), module-level dicts
such as ``verify._RUNNERS``, and class attributes. Each call records a
span; per-name totals (calls, inclusive time, time covered by child
spans, exceptions raised, computed flops and bytes) are kept as the run
goes, and the first :data:`SPAN_CAP` spans are kept whole so they can be
written out when the run ends.

Tracing assumes one thread: the benchmark leaves ``PINSET_THREADS``
unset, so pinset starts no thread pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("tensor", "kernels", "blocks", "models", "train", "data", "decomp", "verify", "textio")

SPAN_CAP = 20000


# ---------------------------------------------------------------------------
# computed operation counts (float64, so 8 bytes per element)


def _shape(x):
    return getattr(x, "data", x).shape


def _prod(dims):
    out = 1
    for d in dims:
        out *= int(d)
    return out


def matmul_cost(a, b):
    """Forward product of (m, k) by (k, n): 2mkn flops; reads both operands
    and writes the result once."""
    m, k = _shape(a)
    n = _shape(b)[1]
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def pair_aggregate_cost(a, b):
    """(B, N, s) and (B, N, t) contracted over N: 2BNst flops."""
    bsz, n, s = _shape(a)
    t = _shape(b)[2]
    return 2 * bsz * n * s * t, 8 * (bsz * n * s + bsz * n * t + bsz * s * t)


def sum_product_forward_cost(factors):
    """out[a_1..a_k] = sum_i prod_j F_j[i, a_j] as written: per row and
    output entry, k-1 multiplies and one add, so N * P * k flops where P is
    the output size."""
    dims = [_shape(f)[1] for f in factors]
    rows = _shape(factors[0])[0]
    size = _prod(dims)
    return rows * size * len(dims), 8 * (rows * sum(dims) + size)


def sum_product_backward_cost(factors, grad_flat):
    """Each factor's gradient is the forward formula with that factor
    replaced by the output gradient: k times the forward count."""
    flops, _ = sum_product_forward_cost(factors)
    dims = [_shape(f)[1] for f in factors]
    rows = _shape(factors[0])[0]
    size = _prod(dims)
    return flops * len(dims), 8 * (2 * rows * sum(dims) + size)


COSTS = {
    "tensor.matmul": matmul_cost,
    "tensor.pair_aggregate": pair_aggregate_cost,
    "kernels.sum_product_forward": sum_product_forward_cost,
    "kernels.sum_product_backward": sum_product_backward_cost,
}


# ---------------------------------------------------------------------------


def _targets(module, short):
    """(owner, attribute, span name, function) for every public function
    defined in ``module`` and every public method of its public classes."""
    out = []
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append((module, attr, f"{short}.{attr}", value))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for meth, fn in vars(value).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((value, meth, f"{short}.{value.__name__}.{meth}", fn))
    return out


class Tracer:
    """Wrappers are built once; :meth:`active` patches them in for the
    length of a ``with`` block. Totals keep adding up over every block.

    While active, the tracer also counts tape nodes: results of
    ``tensor._result`` that record a backward function."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total = defaultdict(float)  # inclusive seconds
        self.child = defaultdict(float)  # seconds covered by child spans
        self.errors: Counter = Counter()  # (name, exception class name)
        self.flops = defaultdict(float)
        self.bytes = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [child seconds, span id]
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, key, original, is_dict)
        self.wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self.tape_nodes = 0
        for short in TRACED_MODULES:
            module = importlib.import_module(f"pinset.{short}")
            for _, _, name, fn in _targets(module, short):
                self.wrappers[id(fn)] = self._wrap(name, fn)

    def _wrap(self, name, fn):
        stack = self._stack
        cost = COSTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.child[name] += frame[0]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, t0, t1))
            if cost is not None:
                flops, nbytes = cost(*args, **kwargs)
                self.flops[name] += flops
                self.bytes[name] += nbytes
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pinset" and not mod_name.startswith("pinset."):
                continue
            for owner in [module] + [
                v for v in vars(module).values()
                if inspect.isclass(v) and v.__module__ == mod_name
            ]:
                for key, value in list(vars(owner).items()):
                    if id(value) in self.wrappers:
                        self._patches.append((owner, key, value, False))
                        setattr(owner, key, self.wrappers[id(value)])
                    elif isinstance(value, dict) and owner is module:
                        for k, v in list(value.items()):
                            if id(v) in self.wrappers:
                                self._patches.append((value, k, v, True))
                                value[k] = self.wrappers[id(v)]
        tensor = sys.modules["pinset.tensor"]
        self._patches.append((tensor, "_result", tensor._result, False))
        tensor._result = self._counting_result(tensor._result)

    def _counting_result(self, result):
        def counting_result(*args):
            node = result(*args)
            self.tape_nodes += node._backward is not None
            return node

        return counting_result

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ------------------------------------------------------------

    def ms(self, name: str) -> float:
        return self.total[name] * 1e3

    def self_ms(self, name: str) -> float:
        return (self.total[name] - self.child[name]) * 1e3

    def error_count(self, name: str, exc_name: str) -> int:
        return self.errors[name, exc_name]
