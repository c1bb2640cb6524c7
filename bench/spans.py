"""In-memory span recorder for the traced benchmark run.

`Tracer.install` wraps rotnear's public functions and methods, layer by
layer.  A module-level function is replaced in every loaded rotnear
module that holds it, so the names that sibling modules re-bind with
``from .x import y`` (``cayley.inverse``, ``quadspace.det``, the imports
in ``cli``, the package namespace itself) are traced too.  While an
operation is open, each wrapped call appends one span -- name, start,
end, parent span and operation id -- to flat arrays.  Call counts, self
times and total times are derived from the arrays by `Tracer.summary`,
and `Tracer.write` stores the raw spans when the run ends.  The only
values recorded at the boundary itself are the expression-swell maxima
and the count of CLI exits with status 2, which no span can express.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

ROOT_SPAN = "bench.op"

_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)

# (span name, module, class or None for a module function, attribute names)
TARGETS = (
    ("field.arith", "rotnear.field", "RatFuncEps", _ARITH),
    ("field.canon", "rotnear.field", "RatFuncEps", ("__init__",)),
    ("field.gcd", "rotnear.field", "PolyEps", ("gcd",)),
    ("field.divmod", "rotnear.field", "PolyEps", ("__divmod__",)),
    ("field.square_class", "rotnear.field", None, ("square_class",)),
    ("field.squarefree_int", "rotnear.field", None, ("squarefree_int",)),
    ("field.parse_elem", "rotnear.field", None, ("parse_elem",)),
    ("field.format_elem", "rotnear.field", None, ("format_elem",)),
    ("linalg.inverse", "rotnear.linalg", None, ("inverse",)),
    ("linalg.det", "rotnear.linalg", None, ("det",)),
    ("linalg.matmul", "rotnear.linalg", "Mat", ("__matmul__",)),
    ("linalg.is_orthogonal", "rotnear.linalg", None, ("is_orthogonal",)),
    ("linalg.frob_sq", "rotnear.linalg", None, ("frob_sq",)),
    ("linalg.mat_json", "rotnear.linalg", None, ("mat_to_json", "mat_from_json")),
    ("cayley.cayley", "rotnear.cayley", None, ("cayley",)),
    ("cayley.infinitesimal_rotation", "rotnear.cayley", None, ("infinitesimal_rotation",)),
    ("cayley.neumann_check", "rotnear.cayley", None, ("neumann_check",)),
    ("quadspace.isometry_init", "rotnear.quadspace", "Isometry", ("__init__",)),
    ("quadspace.reflect", "rotnear.quadspace", None, ("reflect",)),
    ("quadspace.decompose", "rotnear.quadspace", None, ("decompose",)),
    ("quadspace.spinor_norm", "rotnear.quadspace", None, ("spinor_norm",)),
    ("subgroup.in_n", "rotnear.subgroup", None, ("in_n",)),
    ("subgroup.closure_suite", "rotnear.subgroup", None, ("closure_suite",)),
    ("cli.main", "rotnear.cli", None, ("main",)),
)

SPAN_NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.total_s"] = "s"
    out["field.swell.max_degree"] = "count"
    out["field.swell.max_coeff_bits"] = "bits"
    out["cli.exit2.calls"] = "count"
    out["trace.spans"] = "count"
    out["trace.untraced_s"] = "s"
    out["trace.overhead_frac"] = "ratio"
    return out


class Tracer:
    """Span storage plus the wrappers that fill it.

    Spans are recorded only between `begin_op` and `end_op`, so work the
    benchmark does around an operation (input generation, correctness
    checks) leaves no trace.
    """

    def __init__(self):
        self.names = array.array("H")
        self.parents = array.array("l")
        self.ops = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.active = False
        self.op_id = -1
        self._stack = [-1]
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.exit2 = 0

    # -- recording -------------------------------------------------------

    def _open(self, nid):
        i = len(self.starts)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op_id)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def begin_op(self, op_id):
        self.op_id = op_id
        self._root = self._open(0)
        self.active = True

    def end_op(self):
        self.ends[self._root] = time.perf_counter()
        self._stack.pop()
        self.active = False

    def _wrap(self, fn, nid, after=None):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _swell(self, args, _result):
        x = args[0]
        deg = max(x.num.degree, x.den.degree)
        if deg > self.max_degree:
            self.max_degree = deg
        for c in x.num.coeffs + x.den.coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _count_exit2(self, _args, result):
        if result == 2:
            self.exit2 += 1

    def install(self):
        """Wrap every target in the rotnear modules loaded right now."""
        loaded = [m for k, m in sys.modules.items() if k == "rotnear" or k.startswith("rotnear.")]
        after = {"field.canon": self._swell, "cli.main": self._count_exit2}
        for nid, (span, modname, owner, attrs) in enumerate(TARGETS, start=1):
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr in attrs:
                if owner is None:
                    orig = getattr(mod, attr)
                    wrapped = self._wrap(orig, nid, after.get(span))
                    for m in loaded:
                        for k, v in list(vars(m).items()):
                            if v is orig:
                                setattr(m, k, wrapped)
                    continue
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, nid))
                else:
                    wrapped = self._wrap(raw, nid, after.get(span))
                setattr(cls, attr, wrapped)

    # -- derived numbers ---------------------------------------------------

    def summary(self):
        """Per-span-name call counts, self times and total times, derived
        from the spans.

        Self time is a span's duration minus the durations of its direct
        children.  Total time is the duration of the spans that have no
        ancestor of the same name, so recursion is not counted twice.
        Spans are stored in opening order, so every child has a larger
        index than its parent: a forward pass sees each parent before its
        children, a backward pass each child before its parent.
        """
        k = len(SPAN_NAMES)
        calls = [0] * k
        self_s = [0.0] * k
        total_s = [0.0] * k
        n = len(self.starts)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        above = array.array("Q", bytes(8 * n))  # bit set of names on the ancestor path
        for i in range(n):
            p = parents[i]
            if p >= 0:
                above[i] = above[p] | (1 << names[p])
            if not (above[i] >> names[i]) & 1:
                total_s[names[i]] += ends[i] - starts[i]
        del above
        child = array.array("d", bytes(8 * n))
        for i in range(n - 1, -1, -1):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += d - child[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.total_s"] = total_s[nid]
        out["field.swell.max_degree"] = self.max_degree
        out["field.swell.max_coeff_bits"] = self.max_coeff_bits
        out["cli.exit2.calls"] = self.exit2
        out["trace.spans"] = n
        return out

    def write(self, path, meta):
        """Store the spans: one JSON header line, then the raw arrays in
        the order and typecodes the header lists."""
        cols = ("names", "parents", "ops", "starts", "ends")
        header = dict(meta)
        header["span_names"] = list(SPAN_NAMES)
        header["spans"] = len(self.starts)
        header["columns"] = [[c, getattr(self, c).typecode] for c in cols]
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for c in cols:
                getattr(self, c).tofile(fh)
